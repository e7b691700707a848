//! Nondeterministic finite automata with epsilon transitions.

use std::collections::{BTreeSet, VecDeque};

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
    /// automaton of the other.
    ///
    /// The test is an emptiness search over the product automaton, whose
    /// states are pairs `(a, b)` of one state from each side. A pair steps
    /// by an epsilon move of either side alone, or by one labelled
    /// transition of each side whose symbols [`overlap`](Symbol::overlaps);
    /// the intersection is non-empty iff a pair of accepting states is
    /// reachable from `(start, start)`. Visited pairs live in one flat
    /// `|self| · |other|` table, so each pair is expanded at most once.
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
            for &next in &self.epsilons[a] {
                visit(next, b);
            }
            for &next in &other.epsilons[b] {
                visit(a, next);
            }
            for (a_sym, a_next) in &self.transitions[a] {
                for (b_sym, b_next) in &other.transitions[b] {
                    if a_sym.overlaps(b_sym) {
                        visit(*a_next, *b_next);
                    }
                }
            }
        }
        false
    }
}
