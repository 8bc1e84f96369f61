//! # sat-mapit
//!
//! A from-scratch Rust reproduction of **SAT-MapIt** (Tirelli, Ferretti,
//! Pozzi — DATE 2023): an exact, SAT-based modulo-scheduling mapper for
//! coarse-grain reconfigurable arrays, together with every substrate it
//! needs and the heuristic state-of-the-art baselines it is evaluated
//! against.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dfg`] | `satmapit-dfg` | loop-body data-flow graph IR, interpreter, generators |
//! | [`cgra`] | `satmapit-cgra` | PE-array architecture model |
//! | [`sat`] | `satmapit-sat` | CDCL SAT solver, CNF, encodings |
//! | [`graphs`] | `satmapit-graphs` | cliques, colouring, SCC, cyclic arcs |
//! | [`schedule`] | `satmapit-schedule` | ASAP/ALAP, mobility schedule, KMS, MII |
//! | [`regalloc`] | `satmapit-regalloc` | per-PE cyclic-interval register allocation |
//! | [`core`] | `satmapit-core` | the SAT-MapIt mapper itself |
//! | [`morph`] | `satmapit-morph` | exact monomorphism mapping backend (space/time decoupled) |
//! | [`engine`] | `satmapit-engine` | batch frontend over the one II ladder, result + proven-bound caches, persistent stores |
//! | [`sim`] | `satmapit-sim` | physical simulator + equivalence checking |
//! | [`baselines`] | `satmapit-baselines` | RAMP-like and PathSeeker-like mappers |
//! | [`kernels`] | `satmapit-kernels` | the 11 MiBench/Rodinia benchmark DFGs |
//! | [`service`] | `satmapit-service` | mapping daemon: JSON-over-TCP protocol, persistent caches |
//! | [`obs`] | `satmapit-obs` | flight-recorder tracing, latency histograms, structured logging |
//! | [`faults`] | `satmapit-faults` | deterministic fault injection for I/O paths (see `docs/robustness.md`) |
//!
//! ## Batch mapping
//!
//! The [`engine`] crate answers a request from its content-hash-keyed
//! result cache when it can — repeated requests are O(1) and
//! byte-identical — and otherwise climbs the same sequential II ladder
//! as [`core::Mapper::run`] ([`engine::solve`]: the shared
//! [`core::run_ladder`] driver over the configured [`core::Backend`]),
//! starting above any II lower bound already proven for the problem.
//! [`engine::Engine::map_batch`] runs distinct jobs side by side on a
//! bounded worker pool. The `satmapit batch` CLI subcommand fronts it.
//!
//! ## Mapping as a service
//!
//! The [`service`] crate wraps the engine in a long-running daemon
//! (`satmapit serve`) speaking line-delimited JSON over TCP, with a
//! bounded admission queue, per-request deadlines, and result/bound
//! caches persisted to disk ([`engine::persist`]) so a warm restart
//! answers repeat lookups without touching the SAT solver. `satmapit
//! submit` is the matching client.
//!
//! ## Quickstart
//!
//! ```
//! use sat_mapit::cgra::Cgra;
//! use sat_mapit::core::Mapper;
//! use sat_mapit::kernels;
//! use sat_mapit::sim::verify_mapping;
//!
//! let kernel = kernels::by_name("srand").unwrap();
//! let cgra = Cgra::square(3);
//! let outcome = Mapper::new(&kernel.dfg, &cgra).run();
//! let mapped = outcome.result.expect("srand maps on a 3x3");
//!
//! // Execute the mapped loop and compare against reference semantics.
//! verify_mapping(&kernel.dfg, &cgra, &mapped, kernel.memory.clone(), 8)
//!     .expect("mapped code computes the same values");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use satmapit_baselines as baselines;
pub use satmapit_cgra as cgra;
pub use satmapit_core as core;
pub use satmapit_dfg as dfg;
pub use satmapit_engine as engine;
pub use satmapit_faults as faults;
pub use satmapit_graphs as graphs;
pub use satmapit_kernels as kernels;
pub use satmapit_morph as morph;
pub use satmapit_obs as obs;
pub use satmapit_regalloc as regalloc;
pub use satmapit_sat as sat;
pub use satmapit_schedule as schedule;
pub use satmapit_service as service;
pub use satmapit_sim as sim;
