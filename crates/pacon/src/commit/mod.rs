//! The commit module (Sections III.D-1 and III.E).
//!
//! Metadata updates run on the distributed cache first, then an
//! *operation message* goes into the per-node commit queue, through the
//! node's [`outbox`]. One commit process per node (the subscriber)
//! replays messages against the DFS:
//!
//! * **Independent commit** — create/mkdir/rm and inline-data writebacks
//!   carry no ordering constraint beyond the namespace conventions; a
//!   commit that the DFS rejects (parent not yet created, pending
//!   removal) is simply resubmitted until it succeeds.
//! * **Barrier commit** — dependent operations (rmdir, readdir) publish a
//!   barrier marker into every queue; each commit process finishes
//!   everything before its marker (including its retry backlog), reports
//!   to the barrier board, and stalls until the dependent operation
//!   completes and the epoch advances.

pub mod barrier;
pub mod op;
pub mod outbox;
pub mod publish;
pub mod wal;
pub mod worker;

pub use barrier::BarrierBoard;
pub use op::{CommitOp, QueueMsg};
pub use publish::{Buffered, PublishBuffer};
pub use wal::{CommitWal, CrashPoint, CrashSwitch, WalEntry};
pub use worker::{CommitWorker, WorkerStep};
