//! Alphabet symbols for access-path automata.

use std::fmt;
use std::hash::Hash;

/// An alphabet symbol usable in an [`Nfa`](crate::Nfa).
///
/// The only non-standard requirement is wildcard awareness: Grafter's access
/// automata use an "any member" transition for opaque objects and for tree
/// mutations (`new` / `delete`), so language intersection must treat a
/// wildcard as overlapping every symbol.
pub trait Symbol: Clone + Ord + Eq + Hash + fmt::Debug {
    /// Returns `true` if the two symbols can label the same concrete access
    /// edge. For ordinary symbols this is equality; a wildcard overlaps
    /// everything.
    fn overlaps(&self, other: &Self) -> bool;
}

/// A single member-access step of a Grafter access path.
///
/// Access paths are sequences of these symbols. On-tree paths begin with
/// [`PathSym::Root`], the "traversed node" transition that replaces `this`
/// (the paper's `root` transition in Fig. 4/5); the remaining symbols are the
/// program's fields, interned as dense indices by the frontend. Off-tree
/// paths begin directly with the global variable's symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathSym {
    /// The traversed-node transition: the node the summarised function is
    /// invoked on.
    Root,
    /// A named member access (child pointer, data field, global variable or
    /// struct member), interned to a dense index.
    Field(u32),
    /// The "any" transition: any possible member. Used for opaque off-tree
    /// objects and for the sub-fields of nodes manipulated by `new` and
    /// `delete`.
    Any,
}

impl Symbol for PathSym {
    fn overlaps(&self, other: &Self) -> bool {
        matches!((self, other), (PathSym::Any, _) | (_, PathSym::Any)) || self == other
    }
}

impl fmt::Debug for PathSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathSym::Root => write!(f, "root"),
            PathSym::Field(i) => write!(f, "f{i}"),
            PathSym::Any => write!(f, "any"),
        }
    }
}

impl fmt::Display for PathSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Plain characters are symbols too; handy for unit tests.
impl Symbol for char {
    fn overlaps(&self, other: &Self) -> bool {
        self == other || *self == '*' || *other == '*'
    }
}
