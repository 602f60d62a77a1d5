//! Stream a command trace through `POST /v1/trace` with chunked
//! transfer-encoding — the server folds each chunk as it arrives, so a
//! trace of any length costs O(1) server memory — then check the served
//! report is byte-identical to folding the same bytes locally through a
//! [`dram_energy::workload::TraceSession`].
//!
//! The upload deliberately uses a tiny chunk size so commands split
//! across chunk boundaries mid-line; the decoder reassembles them.
//!
//! ```text
//! cargo run --example trace_streaming
//! ```

use std::io::Write;
use std::net::TcpStream;

use dram_energy::server::client::{self, Conn};
use dram_energy::server::presets::FixedModel;
use dram_energy::server::{serve, ServerConfig};
use dram_energy::units::json::Value;
use dram_energy::workload::{TraceDecoder, TraceSession};
use dram_energy::Dram;

/// A small but state-rich trace: open-page bursts over two banks, an
/// explicit power-down nap, a long self-refresh sleep, and a declared
/// tail the policy tiers on its own.
const TRACE: &str = "\
!preset ddr3_1g_x16_55nm
!policy aggressive
# burst on banks 0 and 1
0 act 0
12 rd 0
16 rd 0
28 pre 0
40 act 1
52 wr 1
68 pre 1
# explicit CKE-low nap
500 pde
2500 pdx
# deep sleep: self-refresh
4000 sre
60000 srx
# auto-refresh, then idle to the declared length
61000 ref
!length 100000
";

fn main() {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.local_addr();
    println!("dram-serve on http://{addr}\n");

    // Stream the trace in 24-byte chunks: most lines straddle a chunk
    // boundary, which is exactly what a real network upload looks like.
    let mut conn = Conn::new(TcpStream::connect(addr).expect("connect"));
    let head = client::chunked_head(
        "POST",
        "/v1/trace",
        &[("host", "example"), ("connection", "close")],
    );
    conn.write_all(&head).expect("head");
    for chunk in TRACE.as_bytes().chunks(24) {
        client::write_chunk(&mut conn, chunk).expect("chunk");
    }
    conn.write_all(client::LAST_CHUNK).expect("terminator");

    let reply = conn.read_to_close().expect("response");
    assert_eq!(reply.status(), 200, "rejected: {reply:?}");
    let body = reply.text();

    // Fold the same bytes locally, by the same directive rules — the wire
    // must add nothing.
    let dram = Dram::new(dram_energy::model::reference::ddr3_1g_x16_55nm()).expect("preset");
    let mut session = TraceSession::new(FixedModel::new(&dram));
    let mut decoder = TraceDecoder::new();
    decoder.feed(TRACE.as_bytes(), &mut session).expect("legal");
    let (commands, report) = session.finish(&mut decoder).expect("bills");
    let expected = dram_energy::server::api::trace_document(
        "ddr3_1g_x16_55nm",
        &report,
        commands,
        TRACE.len() as u64,
    )
    .to_string();
    assert_eq!(body, expected, "served report diverged from local fold");
    println!("served report is byte-identical to the local TraceSession\n");

    let doc = Value::parse(&body).expect("valid JSON");
    let f = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "POST /v1/trace ({} bytes, {commands} commands)",
        TRACE.len()
    );
    println!("  cycles          = {:.0}", f("cycles"));
    println!("  total energy    = {:9.1} pJ", f("energy_pj"));
    println!("  average power   = {:9.6} W", f("average_power_w"));
    println!("  energy per bit  = {:9.1} pJ", f("energy_per_bit_pj"));
    println!("\n  per-state breakdown:");
    let states = doc.get("states").expect("states block");
    for state in [
        "active",
        "standby",
        "precharge_power_down",
        "active_power_down",
        "self_refresh",
    ] {
        let s = states.get(state).expect(state);
        println!(
            "    {state:22} {:7.0} cycles {:12.1} pJ",
            s.get("cycles").and_then(Value::as_f64).unwrap_or(0.0),
            s.get("energy_pj").and_then(Value::as_f64).unwrap_or(0.0),
        );
    }

    let served = handle.shutdown();
    println!("\nserver drained after {served} request(s)");
}
