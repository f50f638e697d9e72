//! `inc-lint` — the workspace determinism & sans-IO contract checker.
//!
//! Every headline claim this reproduction makes — the incremental
//! fleet scheduler ≡ its full re-score bit-for-bit, pinned shift-log
//! fingerprints, streaming ≡ full-row telemetry `to_bits()` equality,
//! decode-never-panics, chaos-scenario replayability under a seed —
//! rests on *determinism contracts*: the decision-path crates must be
//! pure functions of observed state. Property tests probe those
//! contracts; this tool pins them at build time, the way P4's
//! compile-time restrictions make in-network programs analyzable.
//!
//! The checker is a self-contained static-analysis pass: a hand-rolled
//! Rust tokenizer ([`lexer`], aware of strings, raw strings, char
//! literals and nested comments — no `syn`, the vendor tree is
//! offline) feeding a declarative per-crate rule table ([`rules`]).
//! The five rules:
//!
//! | rule | contract |
//! |------|----------|
//! | `unordered-iter` | no iteration over `HashMap`/`HashSet` in `inc-sim`/`inc-hw`/`inc-paxos`/`inc-ondemand` |
//! | `wall-clock` | no `Instant::now`/`SystemTime` outside `inc-bench`/examples/benches |
//! | `ambient-rng` | no `thread_rng`/`rand::random`/`RandomState`; randomness is seeded |
//! | `panicking-decode` | no `unwrap`/`expect`/`panic!`/indexing in codec decode paths |
//! | `float-eq` | no `==`/`!=` against float literals outside tests |
//!
//! Violations are waived in-source with
//! `// inc-lint: allow(<rule>): <reason>` (reason mandatory, waiver
//! recorded in `lint.json`); the four sans-IO decision crates may not
//! carry waivers at all — there, the fix is the only way out.

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{lint_workspace, to_human, to_json, Report};
pub use rules::{scan_source, FileReport, Rule, Violation, Waiver, DECISION_CRATES, RULES};
