//! Nondeterministic finite automata with epsilon transitions.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use crate::sym::Symbol;

/// Index of an automaton state.
pub type StateId = usize;

/// A nondeterministic finite automaton with epsilon transitions.
///
/// States are dense indices; state `start` is the unique initial state.
/// The automaton accepts a word if some path from `start` spelling the word
/// (modulo epsilon transitions and wildcard overlap) ends in an accepting
/// state.
#[derive(Clone, Debug, Default)]
pub struct Nfa<S> {
    transitions: Vec<Vec<(S, StateId)>>,
    epsilons: Vec<Vec<StateId>>,
    accepting: Vec<bool>,
    start: StateId,
}

impl<S: Symbol> Nfa<S> {
    /// Creates an automaton with a single, non-accepting start state.
    ///
    /// Its language is empty until transitions and accept states are added.
    pub fn new() -> Self {
        Nfa {
            transitions: vec![Vec::new()],
            epsilons: vec![Vec::new()],
            accepting: vec![false],
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
        let mut cur = a.start;
        for sym in path {
            let next = a.add_state();
            a.add_transition(cur, sym.clone(), next);
            if prefixes_accept {
                a.set_accepting(next, true);
            }
            cur = next;
        }
        a.set_accepting(cur, true);
        a
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if the automaton has no states other than an inert
    /// start state. Note this is *not* a language-emptiness test; see
    /// [`Nfa::is_empty_language`].
    pub fn is_empty(&self) -> bool {
        self.len() == 1 && self.transitions[0].is_empty() && !self.accepting[0]
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
        self.transitions.push(Vec::new());
        self.epsilons.push(Vec::new());
        self.accepting.push(false);
        self.transitions.len() - 1
    }

    /// Adds a labelled transition.
    pub fn add_transition(&mut self, from: StateId, sym: S, to: StateId) {
        if !self.transitions[from]
            .iter()
            .any(|(s, t)| *s == sym && *t == to)
        {
            self.transitions[from].push((sym, to));
        }
    }

    /// Adds an epsilon transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        if from != to && !self.epsilons[from].contains(&to) {
            self.epsilons[from].push(to);
        }
    }

    /// Marks (or unmarks) a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state] = accepting;
    }

    /// Outgoing labelled transitions of a state.
    pub fn transitions_from(&self, state: StateId) -> &[(S, StateId)] {
        &self.transitions[state]
    }

    /// Outgoing epsilon transitions of a state.
    pub fn epsilons_from(&self, state: StateId) -> &[StateId] {
        &self.epsilons[state]
    }

    /// Copies `other` into `self` (disjoint state renaming) and returns the
    /// mapping applied to `other`'s state ids (i.e. the offset).
    fn absorb(&mut self, other: &Nfa<S>) -> usize {
        let offset = self.len();
        for st in 0..other.len() {
            self.transitions.push(
                other.transitions[st]
                    .iter()
                    .map(|(s, t)| (s.clone(), t + offset))
                    .collect(),
            );
            self.epsilons
                .push(other.epsilons[st].iter().map(|t| t + offset).collect());
            self.accepting.push(other.accepting[st]);
        }
        offset
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

    /// Computes the epsilon closure of a set of states.
    fn eps_closure(&self, states: &mut BTreeSet<StateId>) {
        let mut queue: VecDeque<StateId> = states.iter().copied().collect();
        while let Some(st) = queue.pop_front() {
            for &next in &self.epsilons[st] {
                if states.insert(next) {
                    queue.push_back(next);
                }
            }
        }
    }

    /// Returns `true` if the automaton accepts no word at all.
    pub fn is_empty_language(&self) -> bool {
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start] = true;
        while let Some(st) = queue.pop_front() {
            if self.accepting[st] {
                return false;
            }
            for &next in &self.epsilons[st] {
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
            for (_, next) in &self.transitions[st] {
                if !seen[*next] {
                    seen[*next] = true;
                    queue.push_back(*next);
                }
            }
        }
        true
    }

    /// Returns `true` if the automaton accepts `word`, taking wildcard
    /// transitions into account (a wildcard transition matches any input
    /// symbol, and a wildcard input symbol matches any transition).
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut current = BTreeSet::from([self.start]);
        self.eps_closure(&mut current);
        for sym in word {
            let mut next = BTreeSet::new();
            for &st in &current {
                for (label, to) in &self.transitions[st] {
                    if label.overlaps(sym) {
                        next.insert(*to);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            self.eps_closure(&mut next);
            current = next;
        }
        current.iter().any(|&st| self.accepting[st])
    }

    /// Returns `true` if `L(self) ∩ L(other)` is non-empty.
    ///
    /// This is the core dependence test of the compiler: two statements may
    /// conflict iff the write automaton of one intersects a read or write
    /// automaton of the other. The product is explored on the fly; wildcard
    /// transitions overlap every symbol.
    pub fn intersects(&self, other: &Nfa<S>) -> bool {
        let mut start = (BTreeSet::from([self.start]), BTreeSet::from([other.start]));
        self.eps_closure(&mut start.0);
        other.eps_closure(&mut start.1);

        let mut seen: HashSet<(BTreeSet<StateId>, BTreeSet<StateId>)> = HashSet::new();
        let mut queue = VecDeque::from([start.clone()]);
        seen.insert(start);

        while let Some((a_states, b_states)) = queue.pop_front() {
            let a_accepts = a_states.iter().any(|&s| self.accepting[s]);
            let b_accepts = b_states.iter().any(|&s| other.accepting[s]);
            if a_accepts && b_accepts {
                return true;
            }
            // Collect candidate symbols from both sides and advance the
            // product by every overlapping pair.
            let mut moves: BTreeMap<(BTreeSet<StateId>, BTreeSet<StateId>), ()> = BTreeMap::new();
            let mut a_syms: Vec<&S> = Vec::new();
            for &s in &a_states {
                for (sym, _) in &self.transitions[s] {
                    a_syms.push(sym);
                }
            }
            for a_sym in a_syms {
                // Destination on the `self` side under `a_sym`.
                let mut a_next = BTreeSet::new();
                for &s in &a_states {
                    for (sym, to) in &self.transitions[s] {
                        if sym.overlaps(a_sym) {
                            a_next.insert(*to);
                        }
                    }
                }
                // Destination on the `other` side under `a_sym`.
                let mut b_next = BTreeSet::new();
                for &s in &b_states {
                    for (sym, to) in &other.transitions[s] {
                        if sym.overlaps(a_sym) {
                            b_next.insert(*to);
                        }
                    }
                }
                if a_next.is_empty() || b_next.is_empty() {
                    continue;
                }
                self.eps_closure(&mut a_next);
                other.eps_closure(&mut b_next);
                moves.insert((a_next, b_next), ());
            }
            for (pair, ()) in moves {
                if !seen.contains(&pair) {
                    seen.insert(pair.clone());
                    queue.push_back(pair);
                }
            }
        }
        false
    }
}
