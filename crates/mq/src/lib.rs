//! `mq` — a ZeroMQ-like in-process message queue.
//!
//! The paper implements Pacon's commit queue with ZeroMQ (Section III.D,
//! Fig. 5): every client in a consistent region is a *publisher*, and the
//! per-node commit process is the *subscriber* that applies operations to
//! the DFS. This crate provides the one socket pattern that design
//! needs:
//!
//! * [`queue::push_pull`] — a bounded multi-producer single-or-multi-
//!   consumer pipeline where each message is delivered to exactly one
//!   consumer (ZeroMQ PUSH/PULL). This carries the commit traffic.
//! * [`redelivery::RedeliveryWindow`] — a publisher-side window that
//!   re-sends what a faulted link or broker dropped. A plain structure:
//!   the queue's mutex is the only lock in this crate, the window lives
//!   under its owner's.
//!
//! The queue exposes non-blocking receives so it can be driven by the
//! discrete-event harness as well as by real threads.

#![forbid(unsafe_code)]

pub mod queue;
pub mod redelivery;

pub use queue::{push_pull, Consumer, LinkView, Publisher, RecvError, SendFault, TryRecvError};
pub use redelivery::{Disconnected, FlushOutcome, RedeliveryWindow};
