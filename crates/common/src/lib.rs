//! # pgssi-common
//!
//! Shared vocabulary types for the `pgssi` workspace: transaction and commit-sequence
//! identifiers, snapshot representation, typed row values, predicate-lock targets,
//! error types, and runtime configuration.
//!
//! This crate deliberately contains no concurrency-control *logic*; it only defines
//! the data types the storage, lock-manager, SSI-core, and engine crates exchange, so
//! that those crates can depend on each other through a narrow, stable interface.

pub mod config;
pub mod error;
pub mod ids;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod target;
pub mod value;

pub use config::{EngineConfig, IoModel, ObsConfig, ServerConfig, SsiConfig, WalConfig, WalMode};
pub use error::{Error, Result, SerializationKind};
pub use ids::{CommitSeqNo, PageNo, RelId, SlotNo, TupleId, TxnId};
pub use snapshot::Snapshot;
pub use stats::{
    AbortSite, AbortSnapshot, AbortStats, Counter, HistSnapshot, Histogram, TraceEvent, TraceTag,
    Tracer,
};
pub use target::LockTarget;
pub use value::{Key, Row, Value};
