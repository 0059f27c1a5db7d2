#![warn(missing_docs)]

//! Trace-driven SSD simulator for the TPFTL reproduction.
//!
//! Binds together the flash device model ([`tpftl_flash`]), the FTL
//! framework ([`tpftl_core`]) and the workloads ([`tpftl_trace`]) the way
//! FlashSim does in the paper: requests are split into 4 KB page accesses
//! and served in arrival order by a single device whose service time is the
//! sum of the flash-operation latencies each access incurs (address
//! translation, user data access, and garbage collection). The *system
//! response time* therefore includes the queuing delay, exactly the metric
//! of Figure 6(e).

mod buffer;
mod crash;
mod hist;
mod parallel;
pub mod queue;
mod report;
mod sampler;
mod shard;
mod ssd;

pub use buffer::{BufferStats, WriteBuffer};
pub use crash::{CrashHarness, CrashOutcome};
pub use hist::LatencyHistogram;
pub use parallel::run_parallel_with;
pub use queue::{DoorbellRing, DoorbellStats, QueuePair};
pub use report::{RunReport, SimTiming};
pub use sampler::{CacheSample, CacheSampler, MAX_DIRTY_BUCKET};
pub use shard::{OpenLoopOpts, OpenLoopReport, ShardLoadStats, ShardedRunReport, ShardedSsd};
pub use ssd::Ssd;

pub use tpftl_core::Result;
