//! Per-pair fusability verdicts — the `--explain` pass.
//!
//! [`FusionCoverage`] counts how many same-receiver
//! call pairs fused, were missed, or were blocked; this module records *why*,
//! per pair. The grouping stage emits one [`PairExplain`] for every candidate
//! pair it classifies, carrying the source span of both call sites and a
//! structured [`FusionVerdict`]:
//!
//! - [`FusionVerdict::Fused`] — the pair landed in one dispatch group;
//! - [`FusionVerdict::Missed`] — pairwise fusion was legal but the greedy
//!   grouping (or a [`FuseOptions`](crate::FuseOptions) knob) left the calls
//!   apart;
//! - [`FusionVerdict::Blocked`] — no legal grouping exists, with the specific
//!   cause: a receiver that does not resolve to a tree class, no common
//!   dispatch supertype (naming the two static targets), or a dependence
//!   cycle (naming the edge that closes it, found by
//!   [`DepGraph::blocking_hop`] and classified by the same memoised
//!   [`AccessSummary::conflict`] verdict that put it in the [`DepGraph`]).
//!
//! The verdicts aggregate into a [`FusionExplain`] attached to
//! [`FusedProgram`](crate::FusedProgram), rendered as caret-snippet text via
//! [`Diag::render`] or as machine JSON via the shared
//! [`grafter_obs::json::JsonWriter`]. Its per-category totals are the
//! program's [`FusionCoverage`].
//!
//! [`DepGraph`]: crate::DepGraph
//! [`DepGraph::blocking_hop`]: crate::DepGraph::blocking_hop
//! [`AccessSummary::conflict`]: crate::AccessSummary::conflict

use grafter_frontend::{Diag, Span, Stage};
use grafter_obs::json::JsonWriter;

use crate::fusion::FusionCoverage;

/// Why a pairwise-legal candidate pair was left ungrouped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MissReason {
    /// `FuseOptions::grouping` is `false` (the unfused baseline): no
    /// grouping ran at all, though the pair would have been legal.
    GroupingDisabled,
    /// Grouping both calls would exceed `FuseOptions::max_group_size`.
    GroupSizeCutoff {
        /// The configured limit.
        limit: usize,
    },
    /// Grouping both calls would repeat one static function more than
    /// `FuseOptions::max_occurrences` times.
    OccurrenceCutoff {
        /// The configured limit.
        limit: usize,
    },
    /// Legal in isolation, but the greedy pass committed the calls to
    /// different groups (group-level legality constraints with other
    /// members, or visit order).
    GreedyOrder,
}

impl MissReason {
    /// Machine-readable slug, stable across releases.
    pub fn slug(&self) -> &'static str {
        match self {
            MissReason::GroupingDisabled => "grouping-disabled",
            MissReason::GroupSizeCutoff { .. } => "group-size-cutoff",
            MissReason::OccurrenceCutoff { .. } => "occurrence-cutoff",
            MissReason::GreedyOrder => "greedy-order",
        }
    }

    /// Human-readable description.
    pub fn describe(&self) -> String {
        match self {
            MissReason::GroupingDisabled => {
                "fusion is disabled by FusionOptions (grouping = false)".to_string()
            }
            MissReason::GroupSizeCutoff { limit } => {
                format!("grouping both calls would exceed max_group_size = {limit}")
            }
            MissReason::OccurrenceCutoff { limit } => {
                format!("grouping both calls would repeat a function more than max_occurrences = {limit} times")
            }
            MissReason::GreedyOrder => {
                "legal in isolation, but greedy grouping committed the calls to different groups"
                    .to_string()
            }
        }
    }
}

/// The kind of a dependence edge: the first access conflict between its
/// endpoints, or a control dependence when there is none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictKind {
    /// A tree write intersecting a tree read.
    TreeWriteRead,
    /// Two tree writes intersecting.
    TreeWriteWrite,
    /// A tree read intersecting a tree write.
    TreeReadWrite,
    /// A global write intersecting a global read.
    GlobalWriteRead,
    /// Two global writes intersecting.
    GlobalWriteWrite,
    /// A global read intersecting a global write.
    GlobalReadWrite,
    /// A same-frame local-variable conflict.
    Local,
    /// A same-frame control edge (one side may `return`).
    Control,
}

impl ConflictKind {
    /// Machine-readable slug, stable across releases.
    pub fn slug(&self) -> &'static str {
        match self {
            ConflictKind::TreeWriteRead => "tree-write-read",
            ConflictKind::TreeWriteWrite => "tree-write-write",
            ConflictKind::TreeReadWrite => "tree-read-write",
            ConflictKind::GlobalWriteRead => "global-write-read",
            ConflictKind::GlobalWriteWrite => "global-write-write",
            ConflictKind::GlobalReadWrite => "global-read-write",
            ConflictKind::Local => "local-conflict",
            ConflictKind::Control => "control",
        }
    }

    /// Human-readable description of the edge.
    pub fn describe(&self) -> &'static str {
        match self {
            ConflictKind::TreeWriteRead => "a tree write overlapping a later tree read",
            ConflictKind::TreeWriteWrite => "two overlapping tree writes",
            ConflictKind::TreeReadWrite => "a tree read overlapped by a later tree write",
            ConflictKind::GlobalWriteRead => "a global write overlapping a later global read",
            ConflictKind::GlobalWriteWrite => "two overlapping global writes",
            ConflictKind::GlobalReadWrite => "a global read overlapped by a later global write",
            ConflictKind::Local => "a local-variable conflict within one frame",
            ConflictKind::Control => "a control dependence (one side may return)",
        }
    }
}

/// One endpoint of the dependence edge named by a
/// [`BlockCause::DependenceCycle`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeEnd {
    /// Which traversal copy of the merged body the statement came from.
    pub traversal: usize,
    /// Top-level statement index within that traversal's body.
    pub index: usize,
    /// Rendered description, e.g. ``call `compute`​`` or `statement 2`.
    pub what: String,
}

/// Why no legal grouping could fuse a pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockCause {
    /// A receiver path does not resolve to a tree class (e.g. it crosses
    /// into struct data), so the calls cannot share a dispatch.
    CrossHierarchy {
        /// The method whose receiver fails to resolve.
        method: String,
    },
    /// The two static dispatch targets share no common supertype.
    NoCommonSupertype {
        /// Static target class of the first call.
        left: String,
        /// Static target class of the second call.
        right: String,
    },
    /// Merging the two calls would close a dependence cycle through the
    /// named edge.
    DependenceCycle {
        /// The access-conflict kind of the edge.
        kind: ConflictKind,
        /// Edge source (on the path from the first call).
        from: EdgeEnd,
        /// Edge target.
        to: EdgeEnd,
    },
}

impl BlockCause {
    /// Machine-readable slug, stable across releases.
    pub fn slug(&self) -> &'static str {
        match self {
            BlockCause::CrossHierarchy { .. } => "cross-hierarchy",
            BlockCause::NoCommonSupertype { .. } => "no-common-supertype",
            BlockCause::DependenceCycle { .. } => "dependence-cycle",
        }
    }

    /// Human-readable description.
    pub fn describe(&self) -> String {
        match self {
            BlockCause::CrossHierarchy { method } => {
                format!("the receiver of `{method}` does not resolve to a tree class")
            }
            BlockCause::NoCommonSupertype { left, right } => {
                format!("no common dispatch supertype: `{left}` vs `{right}`")
            }
            BlockCause::DependenceCycle { kind, from, to } => {
                format!(
                    "fusing would close a dependence cycle through {}: {} \u{2192} {}",
                    kind.describe(),
                    from.what,
                    to.what
                )
            }
        }
    }
}

/// The verdict on one same-receiver candidate pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FusionVerdict {
    /// The pair was grouped into one child dispatch (a saved visit).
    Fused {
        /// Dense group id within the fused function's body.
        group: usize,
    },
    /// Pairwise fusion was legal but the calls were left apart.
    Missed {
        /// Why.
        reason: MissReason,
    },
    /// No legal grouping could fuse the pair.
    Blocked {
        /// The specific cause.
        cause: BlockCause,
    },
}

impl FusionVerdict {
    /// The verdict's category name: `fused`, `missed` or `blocked`.
    pub fn category(&self) -> &'static str {
        match self {
            FusionVerdict::Fused { .. } => "fused",
            FusionVerdict::Missed { .. } => "missed",
            FusionVerdict::Blocked { .. } => "blocked",
        }
    }

    /// Machine-readable reason slug (`grouped` for fused pairs).
    pub fn slug(&self) -> &'static str {
        match self {
            FusionVerdict::Fused { .. } => "grouped",
            FusionVerdict::Missed { reason } => reason.slug(),
            FusionVerdict::Blocked { cause } => cause.slug(),
        }
    }

    /// Human-readable explanation.
    pub fn describe(&self) -> String {
        match self {
            FusionVerdict::Fused { group } => {
                format!("grouped into one child dispatch (group {group})")
            }
            FusionVerdict::Missed { reason } => reason.describe(),
            FusionVerdict::Blocked { cause } => cause.describe(),
        }
    }
}

/// One call site of a candidate pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Name of the invoked traversal (the dispatch slot's name).
    pub method: String,
    /// Source span of the `receiver->method(...)` statement.
    pub span: Span,
}

/// The full record of one candidate pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairExplain {
    /// Generated name of the fused function whose body held the pair.
    pub fused_fn: String,
    /// Rendered common receiver path, e.g. `this->left`.
    pub receiver: String,
    /// First call of the pair (in merged order).
    pub left: CallSite,
    /// Second call of the pair.
    pub right: CallSite,
    /// The verdict.
    pub verdict: FusionVerdict,
}

/// All per-pair verdicts of one fusion run.
///
/// Accumulated once per distinct fused function (bodies are memoised), in
/// deterministic order, so the report is a static code property suitable
/// for golden tests. Its per-category totals are the program's
/// [`FusionCoverage`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FusionExplain {
    /// Every classified candidate pair, in discovery order.
    pub pairs: Vec<PairExplain>,
}

impl FusionExplain {
    /// Number of fused pairs.
    pub fn fused(&self) -> usize {
        self.count(|v| matches!(v, FusionVerdict::Fused { .. }))
    }

    /// Number of missed pairs.
    pub fn missed(&self) -> usize {
        self.count(|v| matches!(v, FusionVerdict::Missed { .. }))
    }

    /// Number of blocked pairs.
    pub fn blocked(&self) -> usize {
        self.count(|v| matches!(v, FusionVerdict::Blocked { .. }))
    }

    fn count(&self, f: impl Fn(&FusionVerdict) -> bool) -> usize {
        self.pairs.iter().filter(|p| f(&p.verdict)).count()
    }

    /// The totals as a [`FusionCoverage`] (what fusion stores as
    /// [`FusedProgram::coverage`](crate::FusedProgram::coverage)).
    pub fn totals(&self) -> FusionCoverage {
        FusionCoverage {
            fused_pairs: self.fused(),
            missed_pairs: self.missed(),
            blocked_pairs: self.blocked(),
        }
    }

    /// Renders the report as human text over the program source.
    ///
    /// Fused pairs get a one-line note; missed and blocked pairs get
    /// caret snippets (via [`Diag::render`]) pointing at both call sites.
    pub fn render_text(&self, src: &str) -> String {
        let mut out = format!(
            "fusion explain: {} candidate pair(s): {} fused, {} missed, {} blocked\n",
            self.pairs.len(),
            self.fused(),
            self.missed(),
            self.blocked()
        );
        for p in &self.pairs {
            out.push('\n');
            out.push_str(&format!(
                "[{}] {}: `{}`: {} + {}: {}\n",
                p.verdict.category(),
                p.fused_fn,
                p.receiver,
                p.left.method,
                p.right.method,
                p.verdict.describe()
            ));
            if matches!(p.verdict, FusionVerdict::Fused { .. }) {
                continue;
            }
            let why = p.verdict.describe();
            for (site, side) in [(&p.left, "first"), (&p.right, "second")] {
                let d = Diag::warning(
                    Stage::Fuse,
                    format!("{side} call `{}` not fused: {why}", site.method),
                    site.span,
                );
                out.push_str(&d.render(src));
                out.push('\n');
            }
        }
        out
    }

    /// Renders the report as one JSON object (the `--explain --json`
    /// payload and the grafterd `explain` response body).
    pub fn render_json(&self, src: &str) -> String {
        let mut w = JsonWriter::with_capacity(256 + 256 * self.pairs.len());
        w.begin_obj();
        w.key("totals").begin_obj();
        w.key("fused").num(self.fused());
        w.key("missed").num(self.missed());
        w.key("blocked").num(self.blocked());
        w.end_obj();
        w.key("pairs").begin_arr();
        for p in &self.pairs {
            w.begin_obj();
            w.key("fn").str(&p.fused_fn);
            w.key("receiver").str(&p.receiver);
            for (key, site) in [("left", &p.left), ("right", &p.right)] {
                let (line, col) = site.span.line_col(src);
                w.key(key).begin_obj();
                w.key("method").str(&site.method);
                w.key("span").begin_obj();
                w.key("start").num(site.span.start);
                w.key("end").num(site.span.end);
                w.key("line").num(line);
                w.key("col").num(col);
                w.end_obj();
                w.end_obj();
            }
            w.key("verdict").str(p.verdict.category());
            w.key("reason").str(p.verdict.slug());
            w.key("detail").str(&p.verdict.describe());
            match &p.verdict {
                FusionVerdict::Fused { group } => {
                    w.key("group").num(*group);
                }
                FusionVerdict::Missed { .. } => {}
                FusionVerdict::Blocked { cause } => {
                    if let BlockCause::DependenceCycle { kind, from, to } = cause {
                        w.key("edge").begin_obj();
                        w.key("kind").str(kind.slug());
                        for (key, end) in [("from", from), ("to", to)] {
                            w.key(key).begin_obj();
                            w.key("traversal").num(end.traversal);
                            w.key("index").num(end.index);
                            w.key("what").str(&end.what);
                            w.end_obj();
                        }
                        w.end_obj();
                    }
                }
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}
