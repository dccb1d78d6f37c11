//! # Deterministic discrete-event parallel runtime
//!
//! The execution substrate of the PerFlow reproduction: it plays the role
//! of `mpirun` on a cluster plus the PMPI/PAPI/libunwind collection stack
//! (DESIGN.md §2). A [`progmodel::Program`] is interpreted once per rank
//! with a per-rank *virtual clock*; MPI-like operations are matched by a
//! central engine (eager/rendezvous point-to-point, log-tree collectives),
//! OpenMP-like thread regions are simulated fork-join with exact FIFO lock
//! contention, and a seeded noise model provides realistic run-to-run and
//! rank-to-rank variation.
//!
//! What the paper's analyses need — wait times that *propagate* from late
//! senders, collectives that serialize on their slowest participant, lock
//! holders that delay their peers — emerges from the event-level causality
//! here, so graph analyses built on top behave as they do on real systems.
//!
//! Collection is part of the runtime (as with a PMPI wrapper): depending on
//! [`CollectionConfig`], the engine produces calling-context *samples* at a
//! fixed virtual period, PMU estimates, per-instance communication and lock
//! records, and (optionally) a full event trace whose cost is the basis of
//! the Scalasca comparison.

pub mod cct;
pub mod collector;
pub mod config;
pub mod engine;
pub mod error;
pub mod faults;
mod hash;
pub mod net;
pub mod record;
mod threads;
mod walker;

pub use cct::{Cct, CtxFrame, CtxId};
pub use config::{CollectionConfig, NetworkModel, RunConfig};
pub use engine::{simulate, SimError};
pub use faults::{fault_roll, FaultPlan, FaultStream};
pub use record::{
    CommKindTag, CommRecord, LockRecord, MsgEdge, PmuAgg, RankStatus, RunData, RunSummary,
    TraceData,
};
