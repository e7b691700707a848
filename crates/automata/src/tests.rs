//! Unit and property tests for the automata crate.

use crate::{Nfa, PathSym, Search};

fn path(word: &str) -> Vec<char> {
    word.chars().collect()
}

fn lit(word: &str) -> Nfa<char> {
    Nfa::from_path(&path(word), false)
}

fn lit_prefixes(word: &str) -> Nfa<char> {
    Nfa::from_path(&path(word), true)
}

#[test]
fn empty_automaton_accepts_nothing() {
    let a: Nfa<char> = Nfa::new();
    assert!(a.is_empty_language());
    assert!(!a.accepts(&path("a")));
    assert!(!a.accepts(&[]));
}

#[test]
fn primitive_path_accepts_exactly_itself() {
    let a = lit("abc");
    assert!(a.accepts(&path("abc")));
    assert!(!a.accepts(&path("ab")));
    assert!(!a.accepts(&path("abcd")));
    assert!(!a.accepts(&path("abd")));
    assert!(!a.accepts(&[]));
}

#[test]
fn prefix_reads_accept_every_nonempty_prefix() {
    let a = lit_prefixes("abc");
    assert!(a.accepts(&path("a")));
    assert!(a.accepts(&path("ab")));
    assert!(a.accepts(&path("abc")));
    assert!(!a.accepts(&[]));
    assert!(!a.accepts(&path("abcd")));
}

#[test]
fn union_accepts_both_languages() {
    let a = lit("ab").union(&lit("cd"));
    assert!(a.accepts(&path("ab")));
    assert!(a.accepts(&path("cd")));
    assert!(!a.accepts(&path("ac")));
    assert!(!a.is_empty_language());
}

#[test]
fn union_in_place_matches_union() {
    let mut a = lit("ab");
    a.union_in_place(&lit("cd"));
    assert!(a.accepts(&path("ab")));
    assert!(a.accepts(&path("cd")));
    assert!(!a.accepts(&path("ad")));
}

#[test]
fn intersects_detects_shared_word() {
    let a = lit("ab").union(&lit("xy"));
    let b = lit("xy").union(&lit("qq"));
    assert!(a.intersects(&b));
    let c = lit("zz");
    assert!(!a.intersects(&c));
}

#[test]
fn intersects_is_prefix_sensitive() {
    // write `a.b` vs read of prefixes of `a.b.c` — the read touches `a.b`.
    let write = lit("ab");
    let read = lit_prefixes("abc");
    assert!(write.intersects(&read));
    // write `a.b.q` does not clash with read prefixes of `a.b` only if no
    // prefix equals it.
    let write2 = lit("abq");
    let read2 = lit_prefixes("ab");
    assert!(!write2.intersects(&read2));
}

#[test]
fn wildcard_overlaps_everything() {
    // `a.*` (opaque object write) intersects a read of `a.x`.
    let w = lit("a*");
    let r = lit("ax");
    assert!(w.intersects(&r));
    assert!(r.intersects(&w));
    // ... but not a read of `b.x`.
    let r2 = lit("bx");
    assert!(!w.intersects(&r2));
}

#[test]
fn wildcard_self_loop_matches_any_suffix() {
    // Automaton for delete: `a` then any sequence of members.
    let mut a = lit("a");
    let last = a.len() - 1;
    a.add_transition(last, '*', last);
    assert!(a.accepts(&path("a")));
    assert!(a.accepts(&path("axyz")));
    assert!(!a.accepts(&path("bx")));
    let deep = lit("axq");
    assert!(a.intersects(&deep));
}

#[test]
fn accepts_wildcard_word_symbol() {
    let a = lit("ab");
    // A word containing a wildcard symbol (an "any" access) overlaps.
    assert!(a.accepts(&['a', '*']));
}

#[test]
fn disjoint_paths_do_not_intersect() {
    assert!(!lit("abc").intersects(&lit("abd")));
}

#[test]
fn path_sym_overlap() {
    use crate::Symbol;
    assert!(PathSym::Any.overlaps(&PathSym::Field(3)));
    assert!(PathSym::Field(3).overlaps(&PathSym::Any));
    assert!(!PathSym::Field(3).overlaps(&PathSym::Field(4)));
    assert!(PathSym::Root.overlaps(&PathSym::Root));
    assert!(!PathSym::Root.overlaps(&PathSym::Field(0)));
}

#[test]
fn realistic_grafter_statement_automata() {
    // Models Fig. 4: reads of `Width = Content->Width + Border.Size*2`.
    // Tree reads: this->Content (prefix), this->Content.Width, this->Border.Size.
    const CONTENT: PathSym = PathSym::Field(0);
    const WIDTH: PathSym = PathSym::Field(1);
    const BORDER: PathSym = PathSym::Field(2);
    const SIZE: PathSym = PathSym::Field(3);

    let mut reads = Nfa::from_path(&[PathSym::Root, CONTENT, WIDTH], true);
    reads.union_in_place(&Nfa::from_path(&[PathSym::Root, BORDER, SIZE], true));
    // Write automaton of the same statement: this->Width.
    let write = Nfa::from_path(&[PathSym::Root, WIDTH], false);

    // A later statement writing this->Content.Width conflicts with the reads.
    let w2 = Nfa::from_path(&[PathSym::Root, CONTENT, WIDTH], false);
    assert!(reads.intersects(&w2));
    // Writing this->Content.Height does not.
    let w3 = Nfa::from_path(&[PathSym::Root, CONTENT, PathSym::Field(9)], false);
    assert!(!reads.intersects(&w3));
    // But it reads the prefix this->Content, which a topology mutation
    // (delete this->Content, i.e. Content followed by any suffix) clobbers.
    let mut del = Nfa::from_path(&[PathSym::Root, CONTENT], false);
    let last = del.len() - 1;
    del.add_transition(last, PathSym::Any, last);
    assert!(reads.intersects(&del));
    assert!(write.intersects(&Nfa::from_path(&[PathSym::Root, WIDTH], true)));
}

/// Randomised language properties. Originally proptest strategies; the
/// build environment is offline, so cases are drawn from the vendored
/// deterministic `rand` shim with fixed seeds instead.
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: usize = 128;

    fn word(rng: &mut StdRng) -> Vec<char> {
        let len = rng.gen_range(0..6usize);
        (0..len)
            .map(|_| ['a', 'b', 'c'][rng.gen_range(0..3usize)])
            .collect()
    }

    fn words(rng: &mut StdRng) -> Vec<Vec<char>> {
        let n = rng.gen_range(1..5usize);
        (0..n).map(|_| word(rng)).collect()
    }

    fn nfa_from_words(words: &[Vec<char>]) -> Nfa<char> {
        let mut a = Nfa::from_path(&words[0], false);
        for w in &words[1..] {
            a.union_in_place(&Nfa::from_path(w, false));
        }
        a
    }

    #[test]
    fn union_accepts_all_members() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..CASES {
            let ws = words(&mut rng);
            let a = nfa_from_words(&ws);
            for w in &ws {
                assert!(a.accepts(w));
            }
        }
    }

    #[test]
    fn intersects_iff_shared_word() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..CASES {
            let ws1 = words(&mut rng);
            let ws2 = words(&mut rng);
            let a = nfa_from_words(&ws1);
            let b = nfa_from_words(&ws2);
            let shared = ws1.iter().any(|w| ws2.contains(w));
            assert_eq!(a.intersects(&b), shared);
        }
    }

    #[test]
    fn intersects_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..CASES {
            let a = nfa_from_words(&words(&mut rng));
            let b = nfa_from_words(&words(&mut rng));
            assert_eq!(a.intersects(&b), b.intersects(&a));
        }
    }

    /// A random automaton of one to three states over `{a, b, *}`: any
    /// ordered state pair (self-loops and back edges included) may get
    /// labelled edges and an epsilon edge. At least one state accepts.
    fn small_nfa(rng: &mut StdRng) -> Nfa<char> {
        let mut a = Nfa::new();
        let n = rng.gen_range(1..4usize);
        for _ in 1..n {
            a.add_state();
        }
        for from in 0..n {
            for to in 0..n {
                for label in ['a', 'b', '*'] {
                    if rng.gen_bool(0.25) {
                        a.add_transition(from, label, to);
                    }
                }
                if rng.gen_bool(0.2) {
                    a.add_epsilon(from, to);
                }
            }
            a.set_accepting(from, rng.gen_bool(0.3));
        }
        a.set_accepting(rng.gen_range(0..n), true);
        a
    }

    /// Brute force: is some concrete word over `{a, b, c}` that extends
    /// `word` by at most `budget` letters accepted by both automata? `c`
    /// is a member no label names, so only a `*` edge reads it.
    fn shared_word(a: &Nfa<char>, b: &Nfa<char>, word: &mut Vec<char>, budget: usize) -> bool {
        if a.accepts(word) && b.accepts(word) {
            return true;
        }
        budget > 0
            && ['a', 'b', 'c'].into_iter().any(|c| {
                word.push(c);
                let hit = shared_word(a, b, word, budget - 1);
                word.pop();
                hit
            })
    }

    /// Every word over `{a, b, c, *}` of at most `len` letters.
    fn all_words(len: usize) -> Vec<Vec<char>> {
        let mut words = vec![Vec::new()];
        let mut last = vec![Vec::new()];
        for _ in 0..len {
            last = last
                .iter()
                .flat_map(|w: &Vec<char>| {
                    ['a', 'b', 'c', '*'].map(|c| {
                        let mut w = w.clone();
                        w.push(c);
                        w
                    })
                })
                .collect();
            words.extend(last.iter().cloned());
        }
        words
    }

    /// The product search against a brute-force oracle on automata with
    /// wildcards, loops and epsilon edges. A shortest accepting path of
    /// the product visits each of its `|a| · |b|` (at most nine) state
    /// pairs at most once, so a shortest common word has fewer letters
    /// than that and the oracle's bound is exact.
    ///
    /// The ε-free, trimmed form of each automaton must accept exactly the
    /// words it accepts (every word of up to four letters, wildcard
    /// letters included) and give the same intersection answers, with one
    /// search scratch reused across all of them.
    #[test]
    fn intersects_matches_bounded_word_search() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut outcomes = [0usize; 2];
        let words = all_words(4);
        let mut search = Search::default();
        let mut trimmed_states = 0;
        for _ in 0..2 * CASES {
            let a = small_nfa(&mut rng);
            let b = small_nfa(&mut rng);
            let expected = shared_word(&a, &b, &mut Vec::new(), a.len() * b.len() - 1);
            assert_eq!(a.intersects(&b), expected, "{a:?} vs {b:?}");
            assert_eq!(b.intersects(&a), expected, "{b:?} vs {a:?}");
            let (ta, tb) = (a.trim(), b.trim());
            for (nfa, trimmed) in [(&a, &ta), (&b, &tb)] {
                assert!(trimmed.len() <= nfa.len(), "{nfa:?} trimmed to {trimmed:?}");
                assert_eq!(trimmed.is_empty(), nfa.is_empty_language());
                for w in &words {
                    assert_eq!(
                        trimmed.accepts(w),
                        nfa.accepts(w),
                        "{w:?}: {nfa:?} vs {trimmed:?}"
                    );
                }
                trimmed_states += trimmed.len();
            }
            assert_eq!(
                ta.intersects(&tb, &mut search),
                expected,
                "{ta:?} vs {tb:?}"
            );
            assert_eq!(
                tb.intersects(&ta, &mut search),
                expected,
                "{tb:?} vs {ta:?}"
            );
            outcomes[usize::from(expected)] += 1;
        }
        // Both answers are well represented (50 disjoint, 206 not).
        assert!(outcomes.iter().all(|&n| n > CASES / 4), "{outcomes:?}");
        // Trimming drops states somewhere, and searches were counted.
        assert!(trimmed_states < 2 * 2 * CASES * 3, "{trimmed_states}");
        assert!(search.searches() > 0 && search.pairs_visited() > 0);
    }

    /// Searches that visit many pairs grow the scratch table and still
    /// answer exactly, and a later small search reuses it.
    #[test]
    fn trimmed_search_grows_its_table_with_the_pairs_visited() {
        // `a^n` against `(a|*)^n`: the product walks a diagonal of n pairs
        // to the accepting one; `b` misses on the last letter.
        let n = 200;
        let word: Vec<char> = std::iter::repeat('a').take(n).collect();
        let mut loose = Nfa::new();
        let mut cur = loose.start();
        for _ in 0..n {
            let next = loose.add_state();
            loose.add_transition(cur, 'a', next);
            loose.add_transition(cur, '*', next);
            cur = next;
        }
        loose.set_accepting(cur, true);
        let mut miss = word.clone();
        miss[n - 1] = 'b';
        let mut search = Search::default();
        let (lit, loose) = (Nfa::from_path(&word, false).trim(), loose.trim());
        assert!(lit.intersects(&loose, &mut search));
        // Each of the diagonal's pairs before the accepting one is
        // expanded once.
        let visited = search.pairs_visited();
        assert_eq!(visited, n as u64);
        let no = Nfa::from_path(&miss[..n - 1], false);
        assert!(!no.trim().intersects(&lit, &mut search));
        assert!(!Nfa::from_path(&miss, false)
            .trim()
            .intersects(&Nfa::from_path(&word, false).trim(), &mut search));
        assert_eq!(search.searches(), 3);
    }

    #[test]
    fn empty_language_iff_no_word_accepted() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..CASES {
            let a = nfa_from_words(&words(&mut rng));
            assert!(!a.is_empty_language());
        }
    }

    #[test]
    fn prefix_automaton_accepts_prefixes() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..CASES {
            let w = word(&mut rng);
            if w.is_empty() {
                continue;
            }
            let a = Nfa::from_path(&w, true);
            for k in 1..=w.len() {
                assert!(a.accepts(&w[..k]));
            }
            assert!(!a.accepts(&[]));
        }
    }
}
