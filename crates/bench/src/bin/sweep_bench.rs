//! `sweep-bench` — wall-clock comparison of the differential fast path
//! against full model rebuilds, on the workloads that motivated it: the
//! ±20 % sensitivity sweep and the all-pairs interaction matrix.
//!
//! Each timed closure builds a *fresh* engine: the full-rebuild path
//! memoizes every perturbed model in the engine's cache, so a shared
//! engine would time cache hits instead of rebuild work. Both paths run
//! at the same thread count and the outputs are required to be
//! bit-identical — a speedup that changes a single bit is a bug, not an
//! optimisation. Results land in `BENCH_sweep.json` together with the
//! observed speedups and the rebuild-counter deltas
//! (`dram_model_rebuilds_total`, `dram_rebuild_phases_skipped_total`),
//! so CI can assert the fast path actually skipped work.
//!
//! ```text
//! sweep-bench [--quick] [--threads T] [--out FILE]
//! ```

use std::fmt::Write as _;
use std::time::Duration;

use dram_bench::harness::{bench, render, Measurement};
use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::EvalEngine;
use dram_obs::Registry;
use dram_sensitivity::{
    interaction_matrix_with, interaction_matrix_with_full_rebuild, sweep_with,
    sweep_with_full_rebuild, InteractionMatrix, Sweep,
};
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

fn sweeps_match(a: &Sweep, b: &Sweep) -> bool {
    a.baseline_watts.to_bits() == b.baseline_watts.to_bits()
        && a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.param == y.param
                && x.up.to_bits() == y.up.to_bits()
                && x.down.to_bits() == y.down.to_bits()
        })
}

fn matrices_match(a: &InteractionMatrix, b: &InteractionMatrix) -> bool {
    a.baseline_watts.to_bits() == b.baseline_watts.to_bits()
        && a.params == b.params
        && a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.a == y.a
                && x.b == y.b
                && x.joint.to_bits() == y.joint.to_bits()
                && x.composed.to_bits() == y.composed.to_bits()
        })
}

/// One full-vs-differential comparison: timings plus bit-identity.
struct Comparison {
    full: Measurement,
    fast: Measurement,
    bit_identical: bool,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.full.mean.as_secs_f64() / self.fast.mean.as_secs_f64().max(1e-12)
    }

    fn json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"full_mean_s\": {:.9}, \"fast_mean_s\": {:.9}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}",
            self.full.mean.as_secs_f64(),
            self.fast.mean.as_secs_f64(),
            self.speedup(),
            self.bit_identical
        );
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));
    let (budget, max_iters) = if args.quick {
        (Duration::from_millis(1), 1)
    } else {
        (Duration::from_secs(2), 20)
    };
    let desc = ddr3_1g_x16_55nm();
    let threads = args.threads;

    let rebuilds = Registry::global().counter("dram_model_rebuilds_total", "");
    let skipped = Registry::global().counter("dram_rebuild_phases_skipped_total", "");
    let rebuilds_before = rebuilds.get();
    let skipped_before = skipped.get();

    // Reference outputs for the bit-identity check, computed once
    // outside the timed loops.
    let sweep_full =
        sweep_with_full_rebuild(&EvalEngine::new().threads(threads), &desc, VARIATION)
            .expect("reference sweep runs");
    let sweep_fast =
        sweep_with(&EvalEngine::new().threads(threads), &desc, VARIATION).expect("sweep runs");
    let matrix_full = interaction_matrix_with_full_rebuild(
        &EvalEngine::new().threads(threads),
        &desc,
        VARIATION,
    )
    .expect("reference matrix runs");
    let matrix_fast = interaction_matrix_with(&EvalEngine::new().threads(threads), &desc, VARIATION)
        .expect("matrix runs");

    let sweep_cmp = Comparison {
        full: bench("sweep/full_rebuild", budget, max_iters, || {
            sweep_with_full_rebuild(&EvalEngine::new().threads(threads), &desc, VARIATION)
                .expect("sweep runs")
        }),
        fast: bench("sweep/differential", budget, max_iters, || {
            sweep_with(&EvalEngine::new().threads(threads), &desc, VARIATION).expect("sweep runs")
        }),
        bit_identical: sweeps_match(&sweep_fast, &sweep_full),
    };
    let matrix_cmp = Comparison {
        full: bench("interaction_matrix/full_rebuild", budget, max_iters, || {
            interaction_matrix_with_full_rebuild(
                &EvalEngine::new().threads(threads),
                &desc,
                VARIATION,
            )
            .expect("matrix runs")
        }),
        fast: bench("interaction_matrix/differential", budget, max_iters, || {
            interaction_matrix_with(&EvalEngine::new().threads(threads), &desc, VARIATION)
                .expect("matrix runs")
        }),
        bit_identical: matrices_match(&matrix_fast, &matrix_full),
    };

    let rebuilds_delta = rebuilds.get() - rebuilds_before;
    let skipped_delta = skipped.get() - skipped_before;

    let measurements = [
        sweep_cmp.full.clone(),
        sweep_cmp.fast.clone(),
        matrix_cmp.full.clone(),
        matrix_cmp.fast.clone(),
    ];
    print!("{}", render(&measurements));
    println!(
        "sweep speedup {:.2}x, interaction matrix speedup {:.2}x \
         ({rebuilds_delta} differential rebuilds, {skipped_delta} phases skipped)",
        sweep_cmp.speedup(),
        matrix_cmp.speedup()
    );

    let mut doc = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = write!(
            doc,
            "    {{\"name\": \"{}\", \"iters\": {}, \"mean_s\": {:.9}, \
             \"min_s\": {:.9}, \"max_s\": {:.9}}}",
            m.name,
            m.iters,
            m.mean.as_secs_f64(),
            m.min.as_secs_f64(),
            m.max.as_secs_f64()
        );
        doc.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
    }
    doc.push_str("  ],\n  \"threads\": ");
    let _ = write!(doc, "{threads}");
    doc.push_str(",\n  \"sweep\": ");
    sweep_cmp.json(&mut doc);
    doc.push_str(",\n  \"interaction_matrix\": ");
    matrix_cmp.json(&mut doc);
    let _ = write!(
        doc,
        ",\n  \"rebuilds\": {rebuilds_delta},\n  \"phases_skipped\": {skipped_delta}\n}}\n"
    );
    std::fs::write(&args.out, &doc).expect("write bench file");
    println!("wrote {}", args.out);

    if !(sweep_cmp.bit_identical && matrix_cmp.bit_identical) {
        eprintln!("error: differential results are not bit-identical to full rebuilds");
        std::process::exit(1);
    }
}
