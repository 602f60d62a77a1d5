//! # dram-workload
//!
//! Trace-level workload substrate for the DRAM power model: a simple
//! open-page memory-controller model that generates timing-legal command
//! traces from abstract access streams (read share, row-buffer hit rate,
//! arrival intensity), and trace-driven energy accounting including
//! CKE power-down policies. An in-memory trace is a
//! [`dram_core::timing::Schedule`] — the one command schedule type,
//! which the datasheet loops share — read as a finite sequence. Trace
//! text has one grammar, the one `POST /v1/trace` reads:
//! [`TraceDecoder`] is its one reader, handing what it decodes to a
//! [`TraceSink`], [`TraceSession`] is the one meaning of its
//! directives, and [`write_trace`] renders a schedule in it. Every
//! trace — buffered or streamed — is billed by one fold,
//! [`StreamFold`]; [`simulate`] drives it over a schedule, and every
//! trace's bank timing is checked by `dram-core`'s one
//! [`dram_core::timing::TimingChecker`].
//!
//! This is the system-side context of the paper's §V discussion: schemes
//! like Hur & Lin's power-down scheduling \[11\] and Zheng's mini-rank \[14\]
//! act on traces, not on datasheet loops.
//!
//! ```
//! use dram_core::{Dram, reference::ddr3_1g_x16_55nm};
//! use dram_workload::{generate_validated, simulate, PowerDownPolicy, WorkloadSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dram = Dram::new(ddr3_1g_x16_55nm())?;
//! let w = generate_validated(&dram, &WorkloadSpec::random(500, 42))?;
//! let report = simulate(&dram, &w.trace, PowerDownPolicy::NEVER)?;
//! assert!(report.energy_per_bit.picojoules() > 1.0);
//! assert!(report.row_energy_share() > 0.5);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

mod energy;
mod generator;
mod session;
mod stream;

/// The decoder's command type under its trace-side name: one scheduled
/// command of a [`dram_core::timing::Schedule`].
pub use dram_core::timing::TimedCommand as TraceCommand;
/// The five billable power states under their trace-side name.
pub use dram_core::PowerState as TraceState;
pub use energy::{simulate, PowerDownPolicy, StateBreakdown, TraceReport};
pub use generator::{
    generate, generate_validated, GeneratedWorkload, GeneratorStats, PagePolicy, WorkloadSpec,
};
pub use session::{TraceDevice, TraceSession};
pub use stream::{
    trace_bytes_total, trace_commands_total, write_trace, StreamFold, TraceDecoder, TraceError,
    TraceErrorKind, TraceEvent, TraceSink,
};
