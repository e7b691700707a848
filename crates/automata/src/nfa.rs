//! Nondeterministic finite automata: a construction form with epsilon
//! transitions ([`Nfa`]) and the ε-free, trimmed form the dependence test
//! searches ([`Trimmed`]).

use std::collections::{BTreeSet, VecDeque};

use crate::sym::Symbol;

/// Index of an automaton state.
pub type StateId = usize;

/// The end of an edge list, and an unnumbered state of a trim.
const NONE: u32 = u32::MAX;

/// A nondeterministic finite automaton with epsilon transitions, in
/// construction form.
///
/// States are dense indices; state `start` is the unique initial state.
/// The automaton accepts a word if some path from `start` spelling the word
/// (modulo epsilon transitions and wildcard overlap) ends in an accepting
/// state. Each state's labelled and epsilon edges are two lists threaded
/// through two flat edge vectors, in the order they were added, so adding
/// a state, an edge or a whole other automaton ([`Nfa::union_in_place`],
/// [`Nfa::embed`]) appends to a few vectors and allocates nothing per
/// state, and [`Nfa::trim_from`] follows the edges out of any state
/// without indexing the rest. Trimming turns it into the searchable
/// [`Trimmed`] form.
#[derive(Clone, Debug, Default)]
pub struct Nfa<S> {
    states: Vec<State>,
    /// `(symbol, target, next edge out of the same state)`.
    transitions: Vec<(S, u32, u32)>,
    /// `(target, next edge out of the same state)`.
    epsilons: Vec<(u32, u32)>,
    start: StateId,
}

/// One [`Nfa`] state: its acceptance and its two edge lists.
#[derive(Clone, Copy, Debug)]
struct State {
    accepting: bool,
    labelled: List,
    epsilons: List,
}

impl State {
    fn new(accepting: bool) -> Self {
        State {
            accepting,
            labelled: List::EMPTY,
            epsilons: List::EMPTY,
        }
    }
}

/// The first and last edge of a state's edge list ([`NONE`] when empty).
#[derive(Clone, Copy, Debug)]
struct List {
    first: u32,
    last: u32,
}

impl List {
    const EMPTY: List = List {
        first: NONE,
        last: NONE,
    };
}

impl<S: Symbol> Nfa<S> {
    /// Creates an automaton with a single, non-accepting start state.
    ///
    /// Its language is empty until transitions and accept states are added.
    pub fn new() -> Self {
        Nfa {
            states: vec![State::new(false)],
            transitions: Vec::new(),
            epsilons: Vec::new(),
            start: 0,
        }
    }

    /// Builds the primitive automaton for a single access path.
    ///
    /// A *read* of an access path also reads every non-empty prefix of the
    /// path, so with `prefixes_accept = true` every state except the start is
    /// accepting. A *write* touches only the full path, so with
    /// `prefixes_accept = false` only the final state accepts (the implied
    /// prefix reads are added to the statement's read automaton separately).
    pub fn from_path(path: &[S], prefixes_accept: bool) -> Self {
        let mut a = Nfa::new();
        let start = a.start;
        let last = a.add_path(start, path, prefixes_accept);
        a.set_accepting(last, true);
        a
    }

    /// Adds a chain of fresh states spelling `path` from `from` and returns
    /// its last state (`from` itself for an empty path). With
    /// `prefixes_accept` every fresh state accepts; otherwise none does.
    pub fn add_path(&mut self, from: StateId, path: &[S], prefixes_accept: bool) -> StateId {
        let mut cur = from;
        for sym in path {
            let next = self.add_state();
            self.add_transition(cur, sym.clone(), next);
            self.set_accepting(next, prefixes_accept);
            cur = next;
        }
        cur
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the automaton has no states other than an inert
    /// start state. Note this is *not* a language-emptiness test; see
    /// [`Nfa::is_empty_language`].
    pub fn is_empty(&self) -> bool {
        self.len() == 1 && self.transitions.is_empty() && !self.states[0].accepting
    }

    /// The initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Returns `true` if `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.states[state].accepting
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.states.push(State::new(false));
        self.states.len() - 1
    }

    /// Adds a labelled transition.
    pub fn add_transition(&mut self, from: StateId, sym: S, to: StateId) {
        let e = id32(self.transitions.len());
        self.transitions.push((sym, id32(to), NONE));
        let list = &mut self.states[from].labelled;
        match list.last {
            NONE => list.first = e,
            last => self.transitions[last as usize].2 = e,
        }
        list.last = e;
    }

    /// Adds an epsilon transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        if from == to {
            return;
        }
        let e = id32(self.epsilons.len());
        self.epsilons.push((id32(to), NONE));
        let list = &mut self.states[from].epsilons;
        match list.last {
            NONE => list.first = e,
            last => self.epsilons[last as usize].1 = e,
        }
        list.last = e;
    }

    /// Marks (or unmarks) a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.states[state].accepting = accepting;
    }

    /// The labelled edges out of `state`, as `(symbol, target)`, in the
    /// order they were added. (Here and below, [`NONE`] ends a list by
    /// lying past every edge.)
    fn labelled(&self, state: StateId) -> impl Iterator<Item = (&S, StateId)> + '_ {
        let mut e = self.states[state].labelled.first;
        std::iter::from_fn(move || {
            let (sym, to, next) = self.transitions.get(e as usize)?;
            e = *next;
            Some((sym, *to as StateId))
        })
    }

    /// The epsilon targets of `state`, in the order they were added.
    fn epsilon_targets(&self, state: StateId) -> impl Iterator<Item = StateId> + '_ {
        let mut e = self.states[state].epsilons.first;
        std::iter::from_fn(move || {
            let &(to, next) = self.epsilons.get(e as usize)?;
            e = next;
            Some(to as StateId)
        })
    }

    /// Every labelled transition, as `(from, symbol, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &S, StateId)> + '_ {
        (0..self.len()).flat_map(move |q| self.labelled(q).map(move |(s, t)| (q, s, t)))
    }

    /// Every epsilon transition, as `(from, to)`.
    pub fn epsilons(&self) -> impl Iterator<Item = (StateId, StateId)> + '_ {
        (0..self.len()).flat_map(move |q| self.epsilon_targets(q).map(move |t| (q, t)))
    }

    /// Copies `other` into `self` (disjoint state renaming) and returns the
    /// offset added to `other`'s state ids.
    fn absorb(&mut self, other: &Nfa<S>) -> usize {
        let offset = self.len();
        self.states
            .extend(other.states.iter().map(|s| State::new(s.accepting)));
        for q in 0..other.len() {
            for (s, t) in other.labelled(q) {
                self.add_transition(q + offset, s.clone(), t + offset);
            }
            for t in other.epsilon_targets(q) {
                self.add_epsilon(q + offset, t + offset);
            }
        }
        offset
    }

    /// Copies the states and transitions of a trimmed automaton into `self`
    /// and returns the id its start state got, or `None` (adding nothing)
    /// when its language is empty. Nothing links to the copy yet: an
    /// epsilon edge to the returned state makes its words follow another
    /// state's.
    pub fn embed(&mut self, other: &Trimmed<S>) -> Option<StateId> {
        if other.is_empty() {
            return None;
        }
        let offset = self.len();
        self.states
            .extend(other.accepting.iter().map(|&a| State::new(a)));
        for q in 0..other.len() {
            for (s, t) in other.edges(q) {
                self.add_transition(q + offset, s.clone(), *t as usize + offset);
            }
        }
        Some(offset)
    }

    /// Adds the words of a trimmed automaton after state `from`: copies it
    /// in ([`Nfa::embed`]) behind an epsilon edge from `from`.
    pub fn attach(&mut self, from: StateId, other: &Trimmed<S>) {
        if let Some(start) = self.embed(other) {
            self.add_epsilon(from, start);
        }
    }

    /// Language union: returns an automaton accepting `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut u = Nfa::new();
        let a = u.absorb(self);
        let b = u.absorb(other);
        u.add_epsilon(u.start, self.start + a);
        u.add_epsilon(u.start, other.start + b);
        u
    }

    /// In-place union: merges `other` into `self` behind an epsilon edge
    /// from `self`'s start state.
    pub fn union_in_place(&mut self, other: &Nfa<S>) {
        let offset = self.absorb(other);
        let start = self.start;
        self.add_epsilon(start, other.start + offset);
    }

    /// Per-state labelled and epsilon successors (the reference
    /// algorithms below walk these).
    #[allow(clippy::type_complexity)]
    fn adjacency(&self) -> (Vec<Vec<(S, StateId)>>, Vec<Vec<StateId>>) {
        let labelled = (0..self.len())
            .map(|q| self.labelled(q).map(|(s, t)| (s.clone(), t)).collect())
            .collect();
        let eps = (0..self.len())
            .map(|q| self.epsilon_targets(q).collect())
            .collect();
        (labelled, eps)
    }

    /// Returns `true` if the automaton accepts no word at all.
    pub fn is_empty_language(&self) -> bool {
        let (labelled, eps) = self.adjacency();
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start] = true;
        while let Some(st) = queue.pop_front() {
            if self.states[st].accepting {
                return false;
            }
            let nexts = eps[st].iter().chain(labelled[st].iter().map(|(_, t)| t));
            for &next in nexts {
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
        }
        true
    }

    /// Returns `true` if the automaton accepts `word`, taking wildcard
    /// transitions into account (a wildcard transition matches any input
    /// symbol, and a wildcard input symbol matches any transition).
    pub fn accepts(&self, word: &[S]) -> bool {
        let (labelled, eps) = self.adjacency();
        let closure = |states: &mut BTreeSet<StateId>| {
            let mut queue: VecDeque<StateId> = states.iter().copied().collect();
            while let Some(st) = queue.pop_front() {
                for &next in &eps[st] {
                    if states.insert(next) {
                        queue.push_back(next);
                    }
                }
            }
        };
        let mut current = BTreeSet::from([self.start]);
        closure(&mut current);
        for sym in word {
            let mut next = BTreeSet::new();
            for &st in &current {
                for (label, to) in &labelled[st] {
                    if label.overlaps(sym) {
                        next.insert(*to);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            closure(&mut next);
            current = next;
        }
        current.iter().any(|&st| self.states[st].accepting)
    }

    /// Returns `true` if `L(self) ∩ L(other)` is non-empty.
    ///
    /// The reference emptiness search over the product automaton with
    /// epsilon moves: a pair steps by an epsilon move of either side
    /// alone, or by one labelled transition of each side whose symbols
    /// [`overlap`](Symbol::overlaps); the intersection is non-empty iff a
    /// pair of accepting states is reachable from `(start, start)`. The
    /// compiler searches [`Trimmed`] automata instead, which have no
    /// epsilon moves and no dead states.
    ///
    /// The search is exact for the wildcard semantics: a concrete word both
    /// automata accept spells, step by step, two labels that each match the
    /// same concrete member, so every step's labels overlap and the word's
    /// two accepting paths form a product path. Conversely, two labels
    /// overlap only if they are equal or one is a wildcard, so each step of
    /// a product path is matched by a concrete member (the non-wildcard
    /// label, or any member when both are wildcards), and the path spells a
    /// word both automata accept.
    pub fn intersects(&self, other: &Nfa<S>) -> bool {
        let (a_labelled, a_eps) = self.adjacency();
        let (b_labelled, b_eps) = other.adjacency();
        let width = other.len();
        let mut seen = vec![false; self.len() * width];
        let mut stack = vec![(self.start, other.start)];
        seen[self.start * width + other.start] = true;
        while let Some((a, b)) = stack.pop() {
            if self.states[a].accepting && other.states[b].accepting {
                return true;
            }
            let mut visit = |a: StateId, b: StateId| {
                if !seen[a * width + b] {
                    seen[a * width + b] = true;
                    stack.push((a, b));
                }
            };
            for &next in &a_eps[a] {
                visit(next, b);
            }
            for &next in &b_eps[b] {
                visit(a, next);
            }
            for (a_sym, a_next) in &a_labelled[a] {
                for (b_sym, b_next) in &b_labelled[b] {
                    if a_sym.overlaps(b_sym) {
                        visit(*a_next, *b_next);
                    }
                }
            }
        }
        false
    }

    /// The ε-free form of this automaton: [`Nfa::trim_from`] its start.
    pub fn trim(&self, scratch: &mut TrimScratch<S>) -> Trimmed<S> {
        self.trim_from(self.start, scratch)
    }

    /// The ε-free form of the automaton that starts at `start`, trimmed
    /// to the states reachable from `start` that can reach acceptance; it
    /// accepts the same words.
    ///
    /// Epsilon removal: `start` and every target of a labelled edge
    /// become states, each taking the labelled edges and the acceptance
    /// of every state in its epsilon closure. States that cannot reach
    /// acceptance then go, with the edges into them. Each state's edges
    /// are sorted and deduplicated, and states are numbered in discovery
    /// order from `start` (state 0), so automata built the same way trim
    /// to equal values, and so does the same part of a larger automaton.
    /// The work is linear in the closures walked plus the edges copied,
    /// and touches no state `start` does not reach: one trim per entry
    /// state of a shared automaton costs what each entry's part costs.
    /// Working memory lives in `scratch`, so a trim allocates only its
    /// result (nothing for an empty language).
    pub fn trim_from(&self, start: StateId, scratch: &mut TrimScratch<S>) -> Trimmed<S> {
        let s = scratch;
        s.begin(self.len());
        s.id[start] = 0;
        s.order.push(id32(start));
        let mut i = 0;
        while i < s.order.len() {
            let stamp = s.next_stamp();
            let q = s.order[i];
            s.closure.clear();
            s.closure.push(q);
            s.mark[q as usize] = stamp;
            let mut j = 0;
            while j < s.closure.len() {
                let mut e = self.states[s.closure[j] as usize].epsilons.first;
                j += 1;
                while e != NONE {
                    let (d, next) = self.epsilons[e as usize];
                    if s.mark[d as usize] != stamp {
                        s.mark[d as usize] = stamp;
                        s.closure.push(d);
                    }
                    e = next;
                }
            }
            let first = s.edges.len();
            let mut acc = false;
            for &c in &s.closure {
                let state = &self.states[c as usize];
                acc |= state.accepting;
                let mut e = state.labelled.first;
                while e != NONE {
                    let (sym, t, next) = &self.transitions[e as usize];
                    let t = *t as usize;
                    if s.id[t] == NONE {
                        s.id[t] = id32(s.order.len());
                        s.order.push(id32(t));
                    }
                    s.edges.push((sym.clone(), s.id[t]));
                    e = *next;
                }
            }
            sort_dedup_tail(&mut s.edges, first);
            s.accepting.push(acc);
            s.offsets.push(id32(s.edges.len()));
            i += 1;
        }
        for &q in &s.order {
            s.id[q as usize] = NONE;
        }
        s.useful_part()
    }
}

/// Sorts and deduplicates `v[first..]` in place.
fn sort_dedup_tail<T: Ord>(v: &mut Vec<T>, first: usize) {
    v[first..].sort_unstable();
    let mut kept = first;
    for i in first..v.len() {
        if kept == first || v[i] != v[kept - 1] {
            v.swap(kept, i);
            kept += 1;
        }
    }
    v.truncate(kept);
}

fn id32(id: usize) -> u32 {
    u32::try_from(id).expect("automaton state ids fit in u32")
}

/// Reusable working memory of [`Nfa::trim_from`], plus a count of the
/// trims run.
///
/// Per-state marks of the automaton being trimmed are kept between trims
/// and reset by stamps and by undoing what a trim set, so a trim touches
/// only the states it reaches; the other vectors are cleared per trim.
/// Every allocation is kept for the next trim, so the scratch tracks the
/// largest automaton trimmed so far, and is freed with it.
#[derive(Clone, Debug)]
pub struct TrimScratch<S> {
    /// Per automaton state: its trimmed number ([`NONE`] between trims).
    id: Vec<u32>,
    /// Per automaton state: the stamp of the last closure that holds it.
    mark: Vec<u32>,
    stamp: u32,
    /// Automaton states by trimmed number.
    order: Vec<u32>,
    /// One state's epsilon closure; later the usefulness walk's stack.
    closure: Vec<u32>,
    /// The ε-free automaton, before dead states go.
    accepting: Vec<bool>,
    offsets: Vec<u32>,
    edges: Vec<(S, u32)>,
    /// The sources of the edges into each state, grouped by target.
    into: Vec<u32>,
    sources: Vec<u32>,
    /// Per state: a fill cursor into `sources`, later its kept number.
    cursor: Vec<u32>,
    useful: Vec<bool>,
    trims: u64,
}

impl<S: Symbol> Default for TrimScratch<S> {
    fn default() -> Self {
        TrimScratch {
            id: Vec::new(),
            mark: Vec::new(),
            stamp: 0,
            order: Vec::new(),
            closure: Vec::new(),
            accepting: Vec::new(),
            offsets: Vec::new(),
            edges: Vec::new(),
            into: Vec::new(),
            sources: Vec::new(),
            cursor: Vec::new(),
            useful: Vec::new(),
            trims: 0,
        }
    }
}

impl<S: Symbol> TrimScratch<S> {
    /// Trims run so far.
    pub fn trims(&self) -> u64 {
        self.trims
    }

    /// Starts a trim of an automaton of `states` states.
    fn begin(&mut self, states: usize) {
        self.trims += 1;
        if self.id.len() < states {
            self.id.resize(states, NONE);
            self.mark.resize(states, 0);
        }
        self.order.clear();
        self.accepting.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.edges.clear();
    }

    /// A stamp no mark holds yet.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// The ε-free automaton without the states that cannot reach
    /// acceptance: walks the edges backwards from the accepting states.
    fn useful_part(&mut self) -> Trimmed<S> {
        let m = self.accepting.len();
        self.into.clear();
        self.into.resize(m + 1, 0);
        for &(_, t) in &self.edges {
            self.into[t as usize + 1] += 1;
        }
        for q in 0..m {
            self.into[q + 1] += self.into[q];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.into[..m]);
        self.sources.clear();
        self.sources.resize(self.edges.len(), 0);
        for q in 0..m {
            let (lo, hi) = (self.offsets[q] as usize, self.offsets[q + 1] as usize);
            for &(_, t) in &self.edges[lo..hi] {
                let slot = &mut self.cursor[t as usize];
                self.sources[*slot as usize] = id32(q);
                *slot += 1;
            }
        }
        self.useful.clear();
        self.useful.extend_from_slice(&self.accepting);
        self.closure.clear();
        self.closure
            .extend((0..m).filter(|&q| self.accepting[q]).map(id32));
        while let Some(q) = self.closure.pop() {
            let q = q as usize;
            for k in self.into[q] as usize..self.into[q + 1] as usize {
                let p = self.sources[k] as usize;
                if !self.useful[p] {
                    self.useful[p] = true;
                    self.closure.push(id32(p));
                }
            }
        }
        if !self.useful[0] {
            return Trimmed::empty();
        }
        if self.useful.iter().all(|&u| u) {
            return Trimmed {
                offsets: self.offsets.clone(),
                edges: self.edges.clone(),
                accepting: self.accepting.clone(),
            };
        }
        // Every state on a path from the start to a useful state is
        // useful, so renumbering the useful states in order keeps them in
        // discovery order, and keeps each state's edges sorted.
        let mut kept = 0;
        for q in 0..m {
            self.cursor[q] = if self.useful[q] { kept } else { NONE };
            kept += u32::from(self.useful[q]);
        }
        let mut out = Trimmed {
            offsets: Vec::with_capacity(kept as usize + 1),
            edges: Vec::with_capacity(self.edges.len()),
            accepting: Vec::with_capacity(kept as usize),
        };
        out.offsets.push(0);
        for q in (0..m).filter(|&q| self.useful[q]) {
            let (lo, hi) = (self.offsets[q] as usize, self.offsets[q + 1] as usize);
            out.edges.extend(
                self.edges[lo..hi]
                    .iter()
                    .filter(|(_, t)| self.useful[*t as usize])
                    .map(|(s, t)| (s.clone(), self.cursor[*t as usize])),
            );
            out.accepting.push(self.accepting[q]);
            out.offsets.push(id32(out.edges.len()));
        }
        out
    }
}

/// An automaton without epsilon transitions whose every state is
/// reachable from the start (state 0) and can reach an accepting state,
/// stored flat: state `q`'s edges, sorted, are one slice of one vector.
///
/// An empty language has no states at all, so emptiness is a length
/// test. Trimmed automata compare and hash by structure; two statements
/// whose automata are built the same way get equal values (see
/// [`Nfa::trim`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Trimmed<S> {
    offsets: Vec<u32>,
    edges: Vec<(S, u32)>,
    accepting: Vec<bool>,
}

impl<S: Symbol> Default for Trimmed<S> {
    fn default() -> Self {
        Trimmed::empty()
    }
}

impl<S: Symbol> Trimmed<S> {
    /// The automaton of the empty language (no states, and no offsets
    /// either: it allocates nothing).
    pub fn empty() -> Self {
        Trimmed {
            offsets: Vec::new(),
            edges: Vec::new(),
            accepting: Vec::new(),
        }
    }

    /// Number of states; 0 exactly when the language is empty.
    pub fn len(&self) -> usize {
        self.accepting.len()
    }

    /// Returns `true` if the automaton has no states, which for a trimmed
    /// automaton means it accepts no word at all.
    pub fn is_empty(&self) -> bool {
        self.accepting.is_empty()
    }

    /// The labelled edges out of `state`, sorted.
    pub fn edges(&self, state: StateId) -> &[(S, u32)] {
        &self.edges[self.offsets[state] as usize..self.offsets[state + 1] as usize]
    }

    /// Returns `true` if the automaton accepts `word`, with the wildcard
    /// semantics of [`Nfa::accepts`].
    pub fn accepts(&self, word: &[S]) -> bool {
        if self.is_empty() {
            return false;
        }
        let mut current = vec![0u32];
        for sym in word {
            let mut next: Vec<u32> = current
                .iter()
                .flat_map(|&q| self.edges(q as usize))
                .filter(|(label, _)| label.overlaps(sym))
                .map(|&(_, t)| t)
                .collect();
            next.sort_unstable();
            next.dedup();
            if next.is_empty() {
                return false;
            }
            current = next;
        }
        current.iter().any(|&q| self.accepting[q as usize])
    }

    /// Returns `true` if `L(self) ∩ L(other)` is non-empty: the product
    /// search of [`Nfa::intersects`], without epsilon moves. Visited pairs
    /// live in `search`, whose table grows with the pairs a search visits
    /// and is reused by the next search.
    ///
    /// This is the core dependence test of the compiler: two statements may
    /// conflict iff the write automaton of one intersects a read or write
    /// automaton of the other.
    pub fn intersects(&self, other: &Trimmed<S>, search: &mut Search) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        search.begin();
        if self.accepting[0] && other.accepting[0] {
            return true;
        }
        search.visit(0, 0);
        while let Some((a, b)) = search.stack.pop() {
            search.pairs_visited += 1;
            for (a_sym, a_next) in self.edges(a as usize) {
                for (b_sym, b_next) in other.edges(b as usize) {
                    if a_sym.overlaps(b_sym) {
                        // A pair of accepting states ends the search as
                        // soon as it is reached.
                        if self.accepting[*a_next as usize] && other.accepting[*b_next as usize] {
                            return true;
                        }
                        search.visit(*a_next, *b_next);
                    }
                }
            }
        }
        false
    }
}

/// Reusable scratch of [`Trimmed::intersects`]: the visited state pairs
/// and the search stack, plus counts of the work done.
///
/// Visited pairs go in an open-addressing table that every search starts
/// small and doubles as it fills, so a search clears and touches only
/// memory proportional to the pairs it visits, never the `|A| · |B|`
/// pairs the two automata could form. The allocation is kept for the
/// next search, so it tracks the largest search run so far.
#[derive(Clone, Debug, Default)]
pub struct Search {
    /// Pair keys (`(a << 32 | b) + 1`; 0 is a free slot); the first
    /// `mask + 1` slots are the live table.
    table: Vec<u64>,
    mask: usize,
    len: usize,
    stack: Vec<(u32, u32)>,
    searches: u64,
    pairs_visited: u64,
}

impl Search {
    /// Slots a search starts with.
    const MIN_SLOTS: usize = 16;

    /// Product searches run so far (intersection tests of two non-empty
    /// automata).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Product state pairs those searches expanded.
    pub fn pairs_visited(&self) -> u64 {
        self.pairs_visited
    }

    fn begin(&mut self) {
        self.searches += 1;
        self.stack.clear();
        self.reset(Self::MIN_SLOTS);
    }

    /// Empties the table and makes its first `slots` slots live.
    fn reset(&mut self, slots: usize) {
        if self.table.len() < slots {
            self.table.resize(slots, 0);
        }
        self.table[..slots].fill(0);
        self.mask = slots - 1;
        self.len = 0;
    }

    /// Marks the pair visited and pushes it, unless it was visited.
    fn visit(&mut self, a: u32, b: u32) {
        let key = ((u64::from(a) << 32) | u64::from(b)) + 1;
        if self.insert(key) {
            self.stack.push((a, b));
        }
    }

    fn insert(&mut self, key: u64) -> bool {
        if 2 * (self.len + 1) > self.mask + 1 {
            self.grow();
        }
        let mut slot = Self::hash(key) & self.mask;
        loop {
            match self.table[slot] {
                0 => {
                    self.table[slot] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    fn grow(&mut self) {
        let live: Vec<u64> = self.table[..=self.mask]
            .iter()
            .copied()
            .filter(|&k| k != 0)
            .collect();
        self.reset(2 * (self.mask + 1));
        for key in live {
            self.insert(key);
        }
    }

    fn hash(key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize
    }
}
