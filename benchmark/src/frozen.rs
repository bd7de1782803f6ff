//! Numbers frozen at calibration (CALIBRATION.md). Both commits of a
//! comparison run these blocks, as many as `--seconds` has room for:
//! changing any of them is a change to the benchmark, not to the
//! program. `BENCHMARK.json` has a fixed set of keys, so they live here.

use crate::ops::Workload;

/// `run_seconds` in BENCHMARK.json: how long the phases measure.
/// `--seconds` defaults to it.
pub const RUN_SECONDS: f64 = 14.0;
/// Publications in the corpus the system is built over.
pub const CORPUS: usize = 240;
/// Corpus and blocks per phase of a `--smoke` run.
pub const SMOKE_CORPUS: usize = 64;
pub const SMOKE_BLOCKS: usize = 8;
/// Share of the closed-loop blocks a traced run takes: there they feed
/// only `client.*`, `host.*` and the counter ratios.
pub const TRACE_CLOSED_SHARE: f64 = 0.25;

/// Each phase runs as this many slices, half of them on the first stack
/// and half on the second; in a traced run closed and open alternate.
pub const SLICES: usize = 4;

/// Keep-alive connections per vCPU (of at most two vCPUs). With one
/// caller per vCPU the closed loop measures thread hand-offs, not work:
/// `wire-hot` blocks then took 23 ms or 46 ms for minutes at a time,
/// whichever way the hypervisor was treating halted vCPUs. Four callers
/// each keep both busy, and the block time is the work.
pub const CLIENTS_PER_CPU: usize = 4;

pub struct Frozen {
    /// How much of the reference's slow-down the workload's own work
    /// shows: its time goes as `(pass / nominal) ^ speed_exponent`.
    /// Fitted over 22-40 runs per workload at speed indices 0.94-1.52
    /// (CALIBRATION.md): the engines are less memory-bound than the
    /// reference, the wire path is not.
    pub speed_exponent: f64,
    /// How often a block repeats its workload's mix (`wire-hot`: the
    /// 64-target hot set), sized for 50-60 ms of closed-loop work.
    pub rounds: usize,
    /// The most blocks the closed-loop phase runs (a multiple of
    /// `SLICES`): a little more than a quiet host does in `RUN_SECONDS`.
    pub closed_blocks: usize,
    /// Open-loop rate, requests per second of nominal time: 40 % of
    /// the calibrated `throughput_rps`.
    pub open_rate: f64,
    /// The most blocks the open-loop phase of a traced run takes (a
    /// multiple of `SLICES`), and reads per block.
    pub open_blocks: usize,
    pub open_block_ops: usize,
}

pub fn frozen(workload: Workload) -> Frozen {
    match workload {
        Workload::SearchCold => Frozen {
            speed_exponent: 0.68,
            rounds: 2,
            closed_blocks: 256,
            open_rate: 355.0,
            open_blocks: 152,
            open_block_ops: 20,
        },
        Workload::GraphCold => Frozen {
            speed_exponent: 0.68,
            rounds: 3,
            closed_blocks: 256,
            open_rate: 1080.0,
            open_blocks: 200,
            open_block_ops: 40,
        },
        Workload::WireHot => Frozen {
            speed_exponent: 1.0,
            rounds: 16,
            closed_blocks: 256,
            open_rate: 8900.0,
            open_blocks: 152,
            open_block_ops: 512,
        },
        Workload::MixedIngest => Frozen {
            speed_exponent: 1.0,
            rounds: 2,
            closed_blocks: 152,
            open_rate: 1075.0,
            open_blocks: 152,
            open_block_ops: 60,
        },
    }
}
