//! Nondeterministic finite automata: a construction form with epsilon
//! transitions ([`Nfa`]) and the ε-free, trimmed form the dependence test
//! searches ([`Trimmed`]).

use std::collections::{BTreeSet, VecDeque};

use crate::sym::Symbol;

/// Index of an automaton state.
pub type StateId = usize;

/// A nondeterministic finite automaton with epsilon transitions, in
/// construction form.
///
/// States are dense indices; state `start` is the unique initial state.
/// The automaton accepts a word if some path from `start` spelling the word
/// (modulo epsilon transitions and wildcard overlap) ends in an accepting
/// state. Transitions live in two flat edge lists, so adding a state, an
/// edge or a whole other automaton ([`Nfa::union_in_place`],
/// [`Nfa::embed`]) appends to a few vectors and allocates nothing per
/// state. [`Nfa::trim`] turns it into the searchable [`Trimmed`] form.
#[derive(Clone, Debug, Default)]
pub struct Nfa<S> {
    accepting: Vec<bool>,
    transitions: Vec<(u32, S, u32)>,
    epsilons: Vec<(u32, u32)>,
    start: StateId,
}

impl<S: Symbol> Nfa<S> {
    /// Creates an automaton with a single, non-accepting start state.
    ///
    /// Its language is empty until transitions and accept states are added.
    pub fn new() -> Self {
        Nfa {
            accepting: vec![false],
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
        self.accepting.len()
    }

    /// Returns `true` if the automaton has no states other than an inert
    /// start state. Note this is *not* a language-emptiness test; see
    /// [`Nfa::is_empty_language`].
    pub fn is_empty(&self) -> bool {
        self.len() == 1 && self.transitions.is_empty() && !self.accepting[0]
    }

    /// The initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Returns `true` if `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.accepting.push(false);
        self.accepting.len() - 1
    }

    /// Adds a labelled transition.
    pub fn add_transition(&mut self, from: StateId, sym: S, to: StateId) {
        self.transitions.push((id32(from), sym, id32(to)));
    }

    /// Adds an epsilon transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        if from != to {
            self.epsilons.push((id32(from), id32(to)));
        }
    }

    /// Marks (or unmarks) a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state] = accepting;
    }

    /// Every labelled transition, as `(from, symbol, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &S, StateId)> + '_ {
        self.transitions
            .iter()
            .map(|(f, s, t)| (*f as StateId, s, *t as StateId))
    }

    /// Every epsilon transition, as `(from, to)`.
    pub fn epsilons(&self) -> impl Iterator<Item = (StateId, StateId)> + '_ {
        self.epsilons
            .iter()
            .map(|&(f, t)| (f as StateId, t as StateId))
    }

    /// Copies `other` into `self` (disjoint state renaming) and returns the
    /// offset added to `other`'s state ids.
    fn absorb(&mut self, other: &Nfa<S>) -> usize {
        let offset = self.len();
        let off = id32(offset);
        self.accepting.extend_from_slice(&other.accepting);
        self.transitions.extend(
            other
                .transitions
                .iter()
                .map(|(f, s, t)| (f + off, s.clone(), t + off)),
        );
        self.epsilons
            .extend(other.epsilons.iter().map(|&(f, t)| (f + off, t + off)));
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
        let off = id32(offset);
        self.accepting.extend_from_slice(&other.accepting);
        for q in 0..other.len() {
            let from = id32(q) + off;
            self.transitions.extend(
                other
                    .edges(q)
                    .iter()
                    .map(|(s, t)| (from, s.clone(), t + off)),
            );
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
        let mut labelled = vec![Vec::new(); self.len()];
        let mut eps = vec![Vec::new(); self.len()];
        for (f, s, t) in &self.transitions {
            labelled[*f as usize].push((s.clone(), *t as usize));
        }
        for &(f, t) in &self.epsilons {
            eps[f as usize].push(t as usize);
        }
        (labelled, eps)
    }

    /// Returns `true` if the automaton accepts no word at all.
    pub fn is_empty_language(&self) -> bool {
        let (labelled, eps) = self.adjacency();
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start] = true;
        while let Some(st) = queue.pop_front() {
            if self.accepting[st] {
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
        current.iter().any(|&st| self.accepting[st])
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
            if self.accepting[a] && other.accepting[b] {
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

    /// The ε-free form of this automaton, trimmed to the states reachable
    /// from the start that can reach acceptance; it accepts the same words.
    ///
    /// Epsilon removal: the start and every target of a labelled edge
    /// become states, each taking the labelled edges and the acceptance
    /// of every state in its epsilon closure. States that cannot reach
    /// acceptance then go, with the edges into them. Each state's edges
    /// are sorted and deduplicated, and states are numbered in discovery
    /// order from the start (state 0), so automata built the same way
    /// trim to equal values. The work is linear in the closures walked
    /// plus the edges copied, on flat arrays.
    pub fn trim(&self) -> Trimmed<S> {
        let n = self.len();
        let labelled = Rows::new(n, self.transitions.iter().map(|e| e.0));
        let eps = Rows::new(n, self.epsilons.iter().map(|e| e.0));

        // Epsilon removal, in discovery order from the start.
        let mut id = vec![u32::MAX; n];
        let mut order = vec![id32(self.start)];
        id[self.start] = 0;
        let mut mark = vec![u32::MAX; n];
        let mut closure = Vec::new();
        let mut accepting = Vec::new();
        let mut offsets = vec![0u32];
        let mut edges: Vec<(S, u32)> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let q = order[i];
            let stamp = id32(i);
            closure.clear();
            closure.push(q);
            mark[q as usize] = stamp;
            let mut j = 0;
            while j < closure.len() {
                let c = closure[j] as usize;
                j += 1;
                for &e in eps.row(c) {
                    let d = self.epsilons[e as usize].1;
                    if mark[d as usize] != stamp {
                        mark[d as usize] = stamp;
                        closure.push(d);
                    }
                }
            }
            let first = edges.len();
            let mut acc = false;
            for &c in &closure {
                acc |= self.accepting[c as usize];
                for &e in labelled.row(c as usize) {
                    let (_, s, t) = &self.transitions[e as usize];
                    let t = *t as usize;
                    if id[t] == u32::MAX {
                        id[t] = id32(order.len());
                        order.push(id32(t));
                    }
                    edges.push((s.clone(), id[t]));
                }
            }
            sort_dedup_tail(&mut edges, first);
            accepting.push(acc);
            offsets.push(id32(edges.len()));
            i += 1;
        }

        // Keep the states that reach acceptance: walk the edges backwards
        // from the accepting states.
        let m = accepting.len();
        let sources: Vec<u32> = (0..m)
            .flat_map(|q| (offsets[q]..offsets[q + 1]).map(move |_| id32(q)))
            .collect();
        let into = Rows::new(m, edges.iter().map(|e| e.1));
        let mut useful = accepting.clone();
        let mut stack: Vec<u32> = (0..m).filter(|&q| useful[q]).map(id32).collect();
        while let Some(q) = stack.pop() {
            for &e in into.row(q as usize) {
                let p = sources[e as usize];
                if !useful[p as usize] {
                    useful[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        if !useful[0] {
            return Trimmed::empty();
        }
        if useful.iter().all(|&u| u) {
            return Trimmed {
                offsets,
                edges,
                accepting,
            };
        }
        // Every state on a path from the start to a useful state is
        // useful, so renumbering the useful states in order keeps them in
        // discovery order, and keeps each state's edges sorted.
        let mut renumber = vec![u32::MAX; m];
        let mut kept = 0;
        for q in 0..m {
            if useful[q] {
                renumber[q] = kept;
                kept += 1;
            }
        }
        let mut out = Trimmed {
            offsets: vec![0],
            edges: Vec::with_capacity(edges.len()),
            accepting: Vec::with_capacity(kept as usize),
        };
        for q in (0..m).filter(|&q| useful[q]) {
            let (lo, hi) = (offsets[q] as usize, offsets[q + 1] as usize);
            out.edges.extend(
                edges[lo..hi]
                    .iter()
                    .filter(|(_, t)| useful[*t as usize])
                    .map(|(s, t)| (s.clone(), renumber[*t as usize])),
            );
            out.accepting.push(accepting[q]);
            out.offsets.push(id32(out.edges.len()));
        }
        out
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

/// Edge lists grouped by source state: row `q` holds the indices of the
/// edges out of `q`, in input order (a counting sort of the sources).
struct Rows {
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl Rows {
    fn new(rows: usize, sources: impl Iterator<Item = u32> + Clone) -> Self {
        let mut offsets = vec![0u32; rows + 1];
        for from in sources.clone() {
            offsets[from as usize + 1] += 1;
        }
        for q in 0..rows {
            offsets[q + 1] += offsets[q];
        }
        let mut next = offsets[..rows].to_vec();
        let mut edges = vec![0u32; offsets[rows] as usize];
        for (e, from) in sources.enumerate() {
            edges[next[from as usize] as usize] = id32(e);
            next[from as usize] += 1;
        }
        Rows { offsets, edges }
    }

    fn row(&self, q: usize) -> &[u32] {
        &self.edges[self.offsets[q] as usize..self.offsets[q + 1] as usize]
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
    /// The automaton of the empty language (no states).
    pub fn empty() -> Self {
        Trimmed {
            offsets: vec![0],
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
