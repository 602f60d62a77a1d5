//! Randomized tests of the workload substrate: the generator must always
//! emit timing-legal traces, the accounting must be consistent, and the
//! page policies must relate as their physics dictates.
//!
//! Driven by deterministic [`SplitMix64`] loops instead of `proptest` so
//! the workspace resolves offline.

use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::timing::{Schedule, TimedCommand};
use dram_core::Dram;
use dram_units::rng::SplitMix64;
use dram_workload::{
    generate, simulate, write_trace, PowerDownPolicy, TraceDecoder, TraceEvent, WorkloadSpec,
};

const CASES: usize = 48;

fn model() -> Dram {
    Dram::new(ddr3_1g_x16_55nm()).expect("valid")
}

fn any_spec(r: &mut SplitMix64) -> WorkloadSpec {
    let gaps = [0.5f64, 1.0, 3.0, 20.0, 150.0];
    let mut spec = WorkloadSpec {
        accesses: 1 + r.range_usize(199),
        read_fraction: r.next_f64(),
        row_hit_rate: r.next_f64(),
        arrival_gap_cycles: *r.pick(&gaps),
        seed: r.next_u64(),
        policy: dram_workload::PagePolicy::OpenPage,
    };
    if r.chance(0.5) {
        spec = spec.with_closed_page();
    }
    spec
}

/// Whatever the stream parameters, the controller emits a legal trace.
#[test]
fn generated_traces_are_always_legal() {
    let dram = model();
    let mut r = SplitMix64::new(0xD001);
    for _ in 0..CASES {
        let spec = any_spec(&mut r);
        let w = generate(&dram, &spec).expect("generates");
        let d = dram.description();
        w.trace
            .validate_trace(&d.timing, d.spec.control_clock, d.spec.banks())
            .expect("generator output is timing-legal");
        // All requested accesses happen.
        let columns =
            w.trace.count(dram_core::Command::Read) + w.trace.count(dram_core::Command::Write);
        assert_eq!(columns, spec.accesses, "{spec:?}");
    }
}

/// Energy accounting: components sum, energy is positive and finite, and
/// power-down never increases energy.
#[test]
fn accounting_is_consistent() {
    let dram = model();
    let mut r = SplitMix64::new(0xD002);
    for _ in 0..CASES {
        let spec = any_spec(&mut r);
        let w = generate(&dram, &spec).expect("generates");
        let base = simulate(&dram, &w.trace, PowerDownPolicy::NEVER).expect("legal");
        assert!(base.energy.joules().is_finite(), "{spec:?}");
        let sum = base.command_energy + base.background_energy + base.power_down_energy;
        assert!(
            (base.energy.joules() - sum.joules()).abs() < 1e-15,
            "{spec:?}"
        );
        let pd = simulate(&dram, &w.trace, PowerDownPolicy::AGGRESSIVE).expect("legal");
        assert!(
            pd.energy.joules() <= base.energy.joules() + 1e-15,
            "{spec:?}"
        );
    }
}

/// `write_trace` output decodes back to the trace's commands and length:
/// every generated trace, an empty one, and one whose idle tail runs
/// long past its only command.
#[test]
fn trace_text_roundtrip() {
    let dram = model();
    let mut r = SplitMix64::new(0xD003);
    let mut traces: Vec<Schedule> = (0..CASES)
        .map(|_| generate(&dram, &any_spec(&mut r)).expect("generates").trace)
        .collect();
    traces.push(Schedule::new(vec![], 500).expect("builds"));
    let act = TimedCommand {
        cycle: 0,
        bank: 3,
        command: dram_core::Command::Activate,
    };
    traces.push(Schedule::new(vec![act], 1000).expect("builds"));
    for trace in traces {
        let text = write_trace(&trace);
        let (mut commands, mut length) = (Vec::new(), None);
        let mut sink = |e: TraceEvent| {
            match e {
                TraceEvent::Command(c) => commands.push(c),
                TraceEvent::Length(n) => length = Some(n),
                other => panic!("unexpected {other:?}"),
            }
            Ok(())
        };
        let mut decoder = TraceDecoder::new();
        decoder
            .feed(text.as_bytes(), &mut sink)
            .expect("own output decodes");
        decoder.finish(&mut sink).expect("own output decodes");
        assert_eq!(commands, trace.commands(), "{text}");
        assert_eq!(length, Some(trace.cycles()), "{text}");
    }
}

/// More accesses never reduce total trace energy (same stream shape).
#[test]
fn energy_grows_with_access_count() {
    let dram = model();
    let mut r = SplitMix64::new(0xD004);
    for _ in 0..CASES {
        let seed = r.next_u64();
        let small = generate(&dram, &WorkloadSpec::random(50, seed)).expect("ok");
        let large = generate(&dram, &WorkloadSpec::random(200, seed)).expect("ok");
        let e_small = simulate(&dram, &small.trace, PowerDownPolicy::NEVER)
            .expect("legal")
            .energy;
        let e_large = simulate(&dram, &large.trace, PowerDownPolicy::NEVER)
            .expect("legal")
            .energy;
        assert!(e_large.joules() > e_small.joules(), "seed={seed}");
    }
}

/// With row locality available, closed page never beats open page on
/// command energy (it forfeits every hit).
#[test]
fn closed_page_command_energy_dominates_open() {
    let dram = model();
    let mut r = SplitMix64::new(0xD005);
    for _ in 0..CASES {
        let seed = r.next_u64();
        let open = generate(&dram, &WorkloadSpec::streaming(150, seed)).expect("ok");
        let closed = generate(
            &dram,
            &WorkloadSpec::streaming(150, seed).with_closed_page(),
        )
        .expect("ok");
        let e_open = simulate(&dram, &open.trace, PowerDownPolicy::NEVER)
            .expect("legal")
            .command_energy;
        let e_closed = simulate(&dram, &closed.trace, PowerDownPolicy::NEVER)
            .expect("legal")
            .command_energy;
        assert!(e_closed.joules() >= e_open.joules(), "seed={seed}");
    }
}
