//! # satmapit-core
//!
//! The SAT-MapIt mapper (Tirelli, Ferretti, Pozzi — DATE 2023): an exact,
//! SAT-based formulation of the CGRA modulo-scheduling mapping problem.
//!
//! ## Pipeline (paper Fig. 3)
//!
//! 1. compute ASAP/ALAP mobility windows for the loop DFG
//!    (`satmapit-schedule`),
//! 2. start at `II = MII = max(ResMII, RecMII)`,
//! 3. fold the mobility schedule into the **kernel mobility schedule**
//!    ([`satmapit_schedule::Kms`]),
//! 4. run the domain [`filter`] over the candidates: an emptied domain
//!    refutes this II before anything is encoded; otherwise
//!    [`encoder::encode`] the constraint sets **C1** (exactly-one
//!    placement per node), **C2** (slot exclusivity) and **C3**
//!    (dependency timing/adjacency with register-file and output-register
//!    transfer paths) into CNF,
//! 5. run the CDCL solver (`satmapit-sat`); on UNSAT, increase II and
//!    repeat,
//! 6. on SAT, [`decode_model`] the placements, [`validate_mapping`]
//!    independently, and run register allocation
//!    (`satmapit-regalloc`); a register-allocation failure also
//!    increases II.
//!
//! The end product is a [`MappedLoop`]: placements, transfer routes and
//! register assignments, from which [`codegen`] builds the per-PE kernel
//! program and the prolog/kernel/epilog schedule.
//!
//! ## Example
//!
//! ```
//! use satmapit_cgra::Cgra;
//! use satmapit_core::{codegen, Mapper};
//! use satmapit_dfg::{Dfg, Op};
//!
//! // acc += a[i] style loop body.
//! let mut dfg = Dfg::new("acc");
//! let one = dfg.add_const(1);
//! let i = dfg.add_node(Op::Add);
//! dfg.add_edge(one, i, 0);
//! dfg.add_back_edge(i, i, 1, 1, -1);
//! let x = dfg.add_node(Op::Load);
//! dfg.add_edge(i, x, 0);
//! let acc = dfg.add_node(Op::Add);
//! dfg.add_edge(x, acc, 0);
//! dfg.add_back_edge(acc, acc, 1, 1, 0);
//!
//! let cgra = Cgra::square(2);
//! let outcome = Mapper::new(&dfg, &cgra).run();
//! let mapped = outcome.result.expect("mappable");
//! let program = codegen::kernel_program(&dfg, &cgra, &mapped.mapping, &mapped.registers);
//! assert_eq!(program.num_instrs(), dfg.num_nodes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codegen;
mod decode;
pub mod encoder;
pub mod filter;
pub mod ladder;
mod mapper;
mod mapping;
mod regs;
pub mod routing;
mod validate;
mod varmap;

pub use backend::Backend;
pub use decode::{decode_model, DecodeError};
pub use ladder::IiLadder;
pub use mapper::{
    map, run_ladder, traced_rung, AttemptOutcome, AttemptReport, IiAttempt, MapFailure, MapOutcome,
    MappedLoop, Mapper, MapperConfig, PreparedMapper, Rungs, SlackPolicy, RA_CUT_BUDGET,
};
pub use mapping::{Mapping, Placement, TransferKind};
pub use regs::{allocate_registers, live_values};
pub use validate::{validate_mapping, Violation};
pub use varmap::VarMap;
