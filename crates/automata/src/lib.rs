//! Finite automata over access-path alphabets.
//!
//! Grafter (Sakka et al., PLDI 2019) summarises the memory locations a
//! statement or a traversal call may touch as a finite automaton over
//! *access paths*: sequences of member accesses starting either at the
//! traversed node (`this`) or at an off-tree root such as a global. The
//! original implementation used OpenFST; this crate provides the subset of
//! automata machinery Grafter actually needs, built from scratch:
//!
//! - nondeterministic finite automata with epsilon transitions ([`Nfa`]),
//!   kept in flat edge lists so that composing them copies no per-state
//!   vectors,
//! - primitive automata for single access paths ([`Nfa::from_path`]),
//! - union ([`Nfa::union`]) and a language intersection test
//!   ([`Nfa::intersects`]) that is aware of the wildcard "any member"
//!   symbol used for opaque objects and for `new` / `delete` tree
//!   mutations. It searches the product automaton's state pairs for an
//!   accepting pair, stepping both sides together on labels that
//!   overlap; that is exact for the wildcard semantics, because a word
//!   both automata accept overlaps label by label, and every overlapping
//!   label pair is matched by some concrete member,
//! - the ε-free, trimmed form the compiler keeps and searches
//!   ([`Nfa::trim`], [`Trimmed`]): same language, no epsilon moves and
//!   no state that cannot lead to acceptance, so a product search visits
//!   only pairs that can matter. Its search ([`Trimmed::intersects`])
//!   keeps visited pairs in a caller-owned [`Search`] whose table grows
//!   with the pairs visited, and counts its work.
//!
//! The alphabet is generic over the [`Symbol`] trait so the automata can be
//! tested independently of the compiler; the compiler instantiates it with
//! [`PathSym`].
//!
//! # Example
//!
//! ```
//! use grafter_automata::{Nfa, PathSym, Search};
//!
//! // reads of `this->Next.Width` (every non-empty prefix is also read)
//! let read = Nfa::from_path(
//!     &[PathSym::Root, PathSym::Field(0), PathSym::Field(7)],
//!     true,
//! );
//! // write of `this->Next.Width`
//! let write = Nfa::from_path(
//!     &[PathSym::Root, PathSym::Field(0), PathSym::Field(7)],
//!     false,
//! );
//! assert!(read.intersects(&write));
//! let other = Nfa::from_path(&[PathSym::Root, PathSym::Field(3)], false);
//! assert!(!read.intersects(&other));
//!
//! // The trimmed forms give the same answers.
//! let mut search = Search::default();
//! assert!(read.trim().intersects(&write.trim(), &mut search));
//! assert!(!read.trim().intersects(&other.trim(), &mut search));
//! assert_eq!(search.searches(), 2);
//! ```

mod nfa;
mod sym;

pub use nfa::{Nfa, Search, StateId, Trimmed};
pub use sym::{PathSym, Symbol};

#[cfg(test)]
mod tests;
