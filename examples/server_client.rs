//! Start `dram-serve` on an ephemeral port and query it through the
//! workspace's HTTP client (`dram_energy::server::client`) — including a
//! production-shaped retry loop: exponential backoff with seeded jitter,
//! a `Retry-After` header that is honored when the server sends one, and
//! a hard attempt cap.
//!
//! To prove the retry path actually runs, the example arms a
//! deterministic fault plan (`dram_energy::faults`) that rejects the
//! first two connections with 503 — the client backs off twice, then
//! succeeds.
//!
//! ```text
//! cargo run --example server_client
//! ```

use std::net::SocketAddr;

use dram_energy::server::client::{self, Reply};
use dram_energy::server::retry::RetryPolicy;
use dram_energy::server::{serve, ServerConfig};
use dram_energy::units::json::Value;

/// A client that retries 503s and transport errors, honors
/// `Retry-After`, and gives up when the budget is spent. Everything
/// else (2xx/4xx/5xx) is returned as-is — only "try again later"
/// signals are worth retrying. The backoff/jitter/hint rules live in
/// `dram_server::retry`, the same policy module the shard router uses.
struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    seed: u64,
}

impl RetryingClient {
    fn new(addr: SocketAddr, seed: u64) -> Self {
        Self {
            addr,
            policy: RetryPolicy::default(),
            seed,
        }
    }

    fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        // One schedule per logical request; the seed advances so
        // successive calls do not replay the same jitter.
        self.seed = self.seed.wrapping_add(1);
        let mut schedule = self.policy.schedule(self.seed);
        loop {
            let attempt = schedule.attempt();
            let outcome = client::fetch(self.addr, method, path, body.as_bytes());
            let hint = match &outcome {
                Ok(r) if r.status() == 503 => {
                    // The server's own estimate wins over our schedule.
                    let hint = r.head.retry_after();
                    println!(
                        "  attempt {attempt}: 503 (retry-after: {}) — backing off",
                        hint.map_or("none".into(), |d| d.as_secs().to_string()),
                    );
                    hint
                }
                Ok(r) => {
                    if attempt > 1 {
                        println!("  attempt {attempt}: {} — recovered", r.status());
                    }
                    return outcome.map_err(|e| e.to_string());
                }
                Err(e) => {
                    println!("  attempt {attempt}: transport error ({e}) — backing off");
                    None
                }
            };
            match schedule.next_delay(hint) {
                Some(wait) => std::thread::sleep(wait),
                None => {
                    return Err(format!(
                        "{method} {path}: gave up after {} attempts",
                        schedule.max_attempts()
                    ))
                }
            }
        }
    }
}

fn main() {
    // Port 0 = ephemeral; local_addr() reports what the OS picked.
    let handle = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.local_addr();
    println!("dram-serve on http://{addr}\n");

    // Reject the first two connections so the retry loop has work to do.
    let plan = dram_energy::faults::Plan::parse("seed=2;server.queue=reject:times=2")
        .expect("valid fault spec");
    dram_energy::faults::arm(&plan);
    let mut client = RetryingClient::new(addr, 0x00C1_1E47);

    println!("GET /v1/presets (first two connections are rejected with 503)");
    let presets = client.call("GET", "/v1/presets", "").expect("presets");
    println!("  {}\n", presets.text());
    dram_energy::faults::disarm();

    let evaluated = client
        .call("POST", "/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#)
        .expect("evaluate");
    let doc = Value::parse(&evaluated.text()).expect("valid JSON");
    let idd = doc.get("idd_ma").expect("idd block");
    println!("POST /v1/evaluate preset=ddr3_1g_x16_55nm");
    for symbol in ["IDD0", "IDD2N", "IDD4R", "IDD4W"] {
        let ma = idd.get(symbol).and_then(Value::as_f64).expect(symbol);
        println!("  {symbol:6} = {ma:7.1} mA");
    }

    let pattern = client
        .call(
            "POST",
            "/v1/pattern",
            r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act nop wrt nop rd nop pre nop"}"#,
        )
        .expect("pattern");
    let doc = Value::parse(&pattern.text()).expect("valid JSON");
    println!(
        "\nPOST /v1/pattern \"act nop wrt nop rd nop pre nop\"\n  power = {:.3} W",
        doc.get("power_w").and_then(Value::as_f64).expect("power")
    );

    let metrics = client.call("GET", "/metrics", "").expect("metrics");
    let doc = Value::parse(&metrics.text()).expect("valid JSON");
    let engine = doc.get("engine").expect("engine block");
    println!(
        "\nGET /metrics\n  requests_total = {}, rejected_busy = {}, cache hits = {}, misses = {}",
        doc.get("requests_total").and_then(Value::as_f64).unwrap_or(0.0),
        doc.get("rejected_busy").and_then(Value::as_f64).unwrap_or(0.0),
        engine.get("cache_hits").and_then(Value::as_f64).unwrap_or(0.0),
        engine.get("cache_misses").and_then(Value::as_f64).unwrap_or(0.0),
    );

    let served = handle.shutdown();
    println!("\nserver drained after {served} requests");
}
