//! `sweep-bench` — wall-clock comparison of the differential fast path
//! against full model rebuilds, on the workloads that motivated it: the
//! perturbation lists of the ±20 % sensitivity sweep
//! ([`Sweep::perturbations`]) and of the all-pairs interaction matrix
//! ([`InteractionMatrix::perturbations`]).
//!
//! The differential path is [`EvalEngine::evaluate_perturbations`]. The
//! reference prices each perturbation with a full rebuild: clone the
//! base description, apply the edit, build the model through the
//! engine's cache and price the mixed workload, all on [`EvalEngine::map`].
//! Each timed call builds a *fresh* engine: the reference memoizes every
//! perturbed model in the engine's cache, so a shared engine would time
//! cache hits instead of rebuild work. Both paths run at the same thread
//! count and every perturbation's price is required to be bit-identical
//! — a speedup that changes a single bit is a bug, not an optimisation.
//! Results land in `BENCH_sweep.json` together with the observed
//! speedups (ratios of medians) and the rebuild-counter deltas
//! (`dram_model_rebuilds_total`, `dram_rebuild_phases_skipped_total`),
//! so CI can assert the fast path actually skipped work.
//!
//! ```text
//! sweep-bench [--quick] [--threads T] [--out FILE]
//! ```

use std::time::Duration;

use dram_bench::harness::{bench, render};
use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::{DramDescription, EvalEngine, ModelError, Perturbation, PowerSummary};
use dram_obs::{Record, Registry};
use dram_sensitivity::{InteractionMatrix, Sweep};
use dram_units::cli::{exit_usage, Flags};

const OUT_FILE: &str = "BENCH_sweep.json";
const VARIATION: f64 = 0.2;

struct Args {
    quick: bool,
    threads: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        threads: 8,
        out: OUT_FILE.to_string(),
    };
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--threads" => args.threads = flags.number("--threads", "thread count", 1..)?,
            "--out" => args.out = flags.value("--out")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: sweep-bench [--quick] [--threads T] [--out FILE]";

/// Each perturbation's mixed-workload price through a full rebuild.
fn full_rebuild(
    engine: &EvalEngine,
    desc: &DramDescription,
    perts: &[Perturbation],
) -> Vec<Result<PowerSummary, ModelError>> {
    engine.map(perts, |p| {
        let mut d = desc.clone();
        p.apply(&mut d);
        Ok(engine.model(&d)?.mixed_workload_power())
    })
}

/// Each perturbation's mixed-workload price through the differential
/// fast path.
fn differential(
    engine: &EvalEngine,
    desc: &DramDescription,
    perts: &[Perturbation],
) -> Vec<Result<PowerSummary, ModelError>> {
    engine
        .evaluate_perturbations(desc, perts)
        .expect("the base description builds")
}

/// Both paths priced every perturbation, to the same bits in every
/// field.
fn bit_identical(
    a: &[Result<PowerSummary, ModelError>],
    b: &[Result<PowerSummary, ModelError>],
) -> bool {
    let bits = |s: &PowerSummary| {
        [
            s.power.watts().to_bits(),
            s.current.amperes().to_bits(),
            s.background.watts().to_bits(),
        ]
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Ok(x), Ok(y)) => bits(x) == bits(y),
            _ => false,
        })
}

/// Median full-rebuild time over median differential time.
fn speedup(full: &Record, fast: &Record) -> f64 {
    full.median / fast.median.max(1e-12)
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));
    // `--quick` still times each path at least 5 times: the slowest, the
    // full-rebuild interaction matrix, takes about 20 ms on a 2-vCPU
    // host, so the budget leaves room for runs five times slower before
    // `n` drops under 5; the cap keeps the sample odd at its full size.
    let (budget, max_iters) = if args.quick {
        (Duration::from_millis(500), 9)
    } else {
        (Duration::from_secs(2), 20)
    };
    let desc = ddr3_1g_x16_55nm();
    let threads = args.threads;

    let rebuilds = Registry::global().counter("dram_model_rebuilds_total", "");
    let skipped = Registry::global().counter("dram_rebuild_phases_skipped_total", "");
    let rebuilds_before = rebuilds.get();
    let skipped_before = skipped.get();

    let sweep_list = Sweep::perturbations(VARIATION);
    let matrix_list = InteractionMatrix::perturbations(VARIATION);
    let fresh = || EvalEngine::new().threads(threads);

    // Both paths' outputs for the bit-identity check, computed once
    // outside the timed loops.
    let sweep_bit_identical = bit_identical(
        &differential(&fresh(), &desc, &sweep_list),
        &full_rebuild(&fresh(), &desc, &sweep_list),
    );
    let matrix_bit_identical = bit_identical(
        &differential(&fresh(), &desc, &matrix_list),
        &full_rebuild(&fresh(), &desc, &matrix_list),
    );
    let records = [
        bench("sweep/full_rebuild", budget, max_iters, || {
            full_rebuild(&fresh(), &desc, &sweep_list)
        }),
        bench("sweep/differential", budget, max_iters, || {
            differential(&fresh(), &desc, &sweep_list)
        }),
        bench("interaction_matrix/full_rebuild", budget, max_iters, || {
            full_rebuild(&fresh(), &desc, &matrix_list)
        }),
        bench("interaction_matrix/differential", budget, max_iters, || {
            differential(&fresh(), &desc, &matrix_list)
        }),
    ];
    let sweep_speedup = speedup(&records[0], &records[1]);
    let matrix_speedup = speedup(&records[2], &records[3]);

    let rebuilds_delta = rebuilds.get() - rebuilds_before;
    let skipped_delta = skipped.get() - skipped_before;

    print!("{}", render(&records));
    println!(
        "sweep speedup {sweep_speedup:.2}x, interaction matrix speedup {matrix_speedup:.2}x \
         ({rebuilds_delta} differential rebuilds, {skipped_delta} phases skipped)"
    );

    let values = vec![
        ("threads", threads.into()),
        ("sweep_bit_identical", sweep_bit_identical.into()),
        ("sweep_speedup", sweep_speedup.into()),
        (
            "interaction_matrix_bit_identical",
            matrix_bit_identical.into(),
        ),
        ("interaction_matrix_speedup", matrix_speedup.into()),
        ("rebuilds", rebuilds_delta.into()),
        ("phases_skipped", skipped_delta.into()),
    ];
    dram_obs::write_bench(&args.out, "sweep", &records, values).expect("write bench file");
    println!("wrote {}", args.out);

    if !(sweep_bit_identical && matrix_bit_identical) {
        eprintln!("error: differential prices are not bit-identical to full rebuilds");
        std::process::exit(1);
    }
}
