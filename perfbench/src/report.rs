//! Turns a run's deployments into the end-to-end and per-layer metrics,
//! the traced run's human-readable breakdown, and the result line.

use crate::deploy::{Deployment, Threads};
use crate::measure::{median, quantile};
use crate::workloads::Workload;
use bgla_crypto::{Keypair, Keyring};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Every message kind of the four workloads (WTS, GWTS inside the RSM,
/// the RSM client protocol, SbS), in a fixed order so every traced run
/// prints the same per-kind metric names.
pub const KINDS: [&str; 20] = [
    "rb_init",
    "rb_echo",
    "rb_ready",
    "ack_req",
    "ack",
    "nack",
    "disc_init",
    "disc_echo",
    "disc_ready",
    "ack_init",
    "ack_echo",
    "ack_ready",
    "new_value",
    "decide",
    "cnf_req",
    "cnf_rep",
    "init",
    "safe_req",
    "safe_ack",
    "resync",
];

/// The end-to-end metrics, in output order, with units.
pub const E2E: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("op_hops_p50", "count"),
    ("msgs_per_op", "count"),
    ("bytes_per_op", "B"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
];

/// One named value.
pub type Metric = (String, f64, &'static str);

/// Unit timings of the crypto layer on the run's own keys.
pub struct CryptoUnits {
    verify_us: f64,
    sign_us: f64,
    keygen_ms: f64,
}

/// Times `Keyring::for_system`, `Keypair::sign` and `Keyring::verify`
/// for an `n`-process system; medians of repeated single calls.
pub fn crypto_units(n: usize) -> CryptoUnits {
    let time = |reps: usize, f: &mut dyn FnMut()| {
        median(
            (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect(),
        )
    };
    let mut ring = Keyring::for_system(n);
    let keygen_ms = time(5, &mut || {
        ring = black_box(Keyring::for_system(black_box(n)))
    }) * 1e3;
    let kp = Keypair::for_process(n - 1);
    let msg = b"perfbench crypto unit timing".to_vec();
    let mut sig = kp.sign(&msg);
    let sign_us = time(31, &mut || sig = black_box(kp.sign(black_box(&msg)))) * 1e6;
    let verify_us = time(31, &mut || {
        assert!(black_box(ring.verify(n - 1, black_box(&msg), &sig)));
    }) * 1e6;
    CryptoUnits {
        verify_us,
        sign_us,
        keygen_ms,
    }
}

/// A finished run.
pub struct Report<'a> {
    workload: Workload,
    /// Deployments on the workload's own runtime that completed; per-op
    /// figures come from these.
    all: Vec<&'a Deployment>,
    plain: Vec<&'a Deployment>,
    traced: Vec<&'a Deployment>,
    /// Completed traced deployments on the simulator: the workload's own
    /// (`sim-rsm-n7`) or a TCP workload's simulator twin.
    simulated: Vec<&'a Deployment>,
    stalled: usize,
    attempted: u64,
    failed: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ops(ds: &[&Deployment]) -> f64 {
    ds.iter().map(|d| d.ops.len() as f64).sum()
}

fn sum(ds: &[&Deployment], f: impl Fn(&Deployment) -> f64) -> f64 {
    ds.iter().map(|d| f(d)).sum()
}

fn pct(ds: &[&Deployment], q: f64, f: impl Fn(&crate::probe::OpRecord) -> Option<f64>) -> f64 {
    let mut v: Vec<f64> = ds
        .iter()
        .flat_map(|d| d.ops.iter().filter_map(&f))
        .collect();
    quantile(&mut v, q).unwrap_or(0.0)
}

impl<'a> Report<'a> {
    /// Splits the run into its plain and traced deployments. A stalled
    /// deployment adds its unfinished ops to the failures and nothing
    /// to the per-op figures, which would otherwise charge the traffic
    /// of its stall interval to the ops that did complete.
    pub fn new(workload: Workload, runs: &'a [Deployment]) -> Report<'a> {
        let done = || runs.iter().filter(|d| !d.stalled);
        let all: Vec<&Deployment> = done().filter(|d| d.sim != workload.tcp()).collect();
        let attempted = runs.iter().map(|d| d.attempted).sum();
        // An op that never completed failed; so did every op of a
        // deployment whose transport dropped messages at a full outbox.
        let failed = runs
            .iter()
            .map(|d| {
                if d.counts.outbox_dropped > 0 {
                    d.attempted
                } else {
                    d.attempted - d.ops.len() as u64
                }
            })
            .sum();
        Report {
            workload,
            plain: all.iter().copied().filter(|d| !d.traced).collect(),
            traced: all.iter().copied().filter(|d| d.traced).collect(),
            simulated: done().filter(|d| d.sim && d.traced).collect(),
            all,
            stalled: runs.iter().filter(|d| d.stalled).count(),
            attempted,
            failed,
        }
    }

    /// The end-to-end metrics over a set of deployments.
    fn e2e(&self, ds: &[&Deployment]) -> Vec<Metric> {
        let n = ops(ds);
        let bytes = if self.workload.tcp() {
            sum(ds, |d| d.counts.frame_bytes as f64)
        } else {
            sum(ds, |d| d.counts.total_bytes() as f64)
        };
        let values = [
            ratio(n, sum(ds, |d| d.wall_s)),
            pct(ds, 0.5, |o| Some(o.ms())),
            pct(ds, 0.9, |o| Some(o.ms())),
            pct(ds, 0.5, |o| Some(o.hops as f64)),
            ratio(sum(ds, |d| d.counts.total_msgs() as f64), n),
            ratio(bytes, n),
            ratio(sum(ds, |d| d.cpu_ms), n),
            median(ds.iter().map(|d| d.setup_s).collect()),
        ];
        E2E.iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    }

    /// End-to-end metrics of a plain run.
    pub fn e2e_all(&self) -> Vec<Metric> {
        self.e2e(&self.all)
    }

    /// The per-layer metrics, read from the traced deployments.
    pub fn per_layer(&self, crypto: &CryptoUnits) -> Vec<Metric> {
        let t = &self.traced;
        let tcp = self.workload.tcp();
        let n = ops(t);
        let per = |x: f64| ratio(x, n);
        let mut m: Vec<Metric> = Vec::new();
        let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

        let handler_ms = sum(t, |d| d.handler_ns()) / 1e6;
        put("core.handler_ms_per_op", per(handler_ms), "ms");
        for k in KINDS {
            let ns = sum(t, |d| d.handler.get(k).map_or(0.0, |h| h.1 as f64));
            put(&format!("core.handler_ms_per_op.{k}"), per(ns / 1e6), "ms");
        }
        for k in KINDS {
            let c = sum(t, |d| *d.counts.msgs.get(k).unwrap_or(&0) as f64);
            put(&format!("core.msgs_per_op.{k}"), per(c), "count");
        }
        for k in KINDS {
            let b = sum(t, |d| *d.counts.bytes.get(k).unwrap_or(&0) as f64);
            put(&format!("core.bytes_per_op.{k}"), per(b), "B");
        }
        put(
            "core.deliveries_per_op",
            per(sum(t, |d| d.counts.delivered as f64)),
            "count",
        );
        put(
            "core.refinements_per_op",
            per(sum(t, |d| d.inspect.refinements as f64)),
            "count",
        );
        put(
            "core.proof_bytes_per_op",
            per(sum(t, |d| d.counts.proof_bytes as f64)),
            "B",
        );
        put(
            "core.proof_ref_bytes_per_op",
            per(sum(t, |d| d.counts.proof_ref_bytes as f64)),
            "B",
        );
        let hops_max = t
            .iter()
            .map(|d| d.inspect.decide_hops_max)
            .max()
            .unwrap_or(0);
        put("core.decide_hops_max", hops_max as f64, "count");

        put(
            "crypto.verifies_per_op",
            per(sum(t, |d| d.inspect.verifies as f64)),
            "count",
        );
        let hits = sum(t, |d| d.inspect.cache.0 as f64);
        let misses = sum(t, |d| d.inspect.cache.1 as f64);
        put(
            "crypto.proof_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        );
        put("crypto.verify_us", crypto.verify_us, "us");
        put("crypto.sign_us", crypto.sign_us, "us");
        put("crypto.keygen_ms", crypto.keygen_ms, "ms");

        let enc = sum(t, |d| d.codec.encode_ns) / 1e6;
        let dec = sum(t, |d| d.codec.decode_ns) / 1e6;
        let modeled_sample = sum(t, |d| d.codec.modeled);
        let payload = sum(t, |d| d.codec.payload);
        let wire_payload = sum(t, |d| d.codec.wire_payload);
        put("codec.encode_ms_per_op", per(enc), "ms");
        put("codec.decode_ms_per_op", per(dec), "ms");
        put(
            "codec.encoded_vs_modeled",
            ratio(payload, modeled_sample),
            "ratio",
        );

        let wire = sum(t, |d| d.counts.frame_bytes as f64);
        put(
            "bytes.modeled_per_op",
            per(sum(t, |d| d.counts.total_bytes() as f64)),
            "B",
        );
        put("bytes.payload_per_op", per(payload), "B");
        put("bytes.wire_per_op", per(wire), "B");

        let msgs = sum(t, |d| d.counts.total_msgs() as f64);
        let data_frames =
            msgs - sum(t, |d| d.self_sends as f64) + sum(t, |d| d.counts.retransmits as f64);
        let frames = sum(t, |d| d.counts.frames as f64);
        let net = |v: f64| if tcp { v } else { 0.0 };
        let thread_ms = |f: fn(&Threads) -> u64| per(sum(t, |d| f(&d.threads) as f64) / 1e6);
        put("net.cpu_ms_per_op", thread_ms(|t| t.poller_cpu_ns), "ms");
        put("net.runq_ms_per_op", thread_ms(|t| t.poller_wait_ns), "ms");
        put(
            "net.event_cpu_ms_per_op",
            thread_ms(|t| t.event_cpu_ns),
            "ms",
        );
        put(
            "net.event_runq_ms_per_op",
            thread_ms(|t| t.event_wait_ns),
            "ms",
        );
        let idle: Vec<f64> = t.iter().filter_map(|d| d.idle_cpu_ms_per_s).collect();
        put("net.idle_cpu_ms_per_s", median(idle), "ms/s");
        put("net.frames_per_op", per(frames), "count");
        put(
            "net.ctrl_frames_per_op",
            net(per(frames - data_frames)),
            "count",
        );
        put("net.wire_vs_payload", ratio(wire, wire_payload), "ratio");
        put(
            "net.retransmits_per_op",
            per(sum(t, |d| d.counts.retransmits as f64)),
            "count",
        );
        put(
            "net.dup_frames_per_op",
            per(sum(t, |d| d.counts.dup_frames as f64)),
            "count",
        );
        put(
            "net.outbox_dropped",
            sum(t, |d| d.counts.outbox_dropped as f64),
            "count",
        );
        put(
            "net.mesh_setup_ms",
            median(self.all.iter().map(|d| d.mesh_ms).collect()),
            "ms",
        );

        let s = &self.simulated;
        let sim_ops = ops(s);
        put(
            "simnet.engine_ms_per_op",
            ratio(sum(s, |d| d.wall_s * 1e3 - d.handler_ns() / 1e6), sim_ops),
            "ms",
        );
        put(
            "simnet.msgs_per_op",
            ratio(sum(s, |d| d.counts.total_msgs() as f64), sim_ops),
            "count",
        );
        put(
            "simnet.bytes_per_op",
            ratio(sum(s, |d| d.counts.total_bytes() as f64), sim_ops),
            "B",
        );

        put(
            "rsm.read_ms_p50",
            pct(t, 0.5, |o| o.read.then(|| o.ms())),
            "ms",
        );
        put(
            "rsm.read_hops_p50",
            pct(t, 0.5, |o| o.read.then_some(o.hops as f64)),
            "count",
        );
        put(
            "rsm.confirm_ms_p50",
            pct(t, 0.5, |o| o.confirm.map(|c| c.0 as f64 / 1e6)),
            "ms",
        );
        put(
            "rsm.confirm_hops_p50",
            pct(t, 0.5, |o| o.confirm.map(|c| c.1 as f64)),
            "count",
        );
        put(
            "rsm.decides_per_op",
            per(sum(t, |d| d.inspect.decisions as f64)),
            "count",
        );

        for ((name, traced, _), (_, plain, _)) in self.e2e(t).into_iter().zip(self.e2e(&self.plain))
        {
            put(
                &format!("trace.overhead.{name}"),
                ratio(traced, plain) - 1.0,
                "ratio",
            );
        }
        m
    }

    /// The human-readable end-to-end table.
    pub fn print_e2e(&self) {
        println!(
            "workload {:?}: {} deployments (+{} stalled), {} ops attempted, {} failed",
            self.workload,
            self.all.len(),
            self.stalled,
            self.attempted,
            self.failed
        );
        for (name, v, unit) in self.e2e_all() {
            println!("  {name:<16} {v:>14.4} {unit}");
        }
    }

    /// The traced run's breakdown: per-layer metrics, the byte
    /// decomposition, the paper-bound row, tracing overhead, and why
    /// absent layers read zero.
    pub fn print_traced(&self, crypto: &CryptoUnits) {
        let (plain, traced) = (self.e2e(&self.plain), self.e2e(&self.traced));
        println!(
            "workload {:?}: {} plain + {} traced deployments (+{} stalled), {} ops attempted, {} failed",
            self.workload,
            self.plain.len(),
            self.traced.len(),
            self.stalled,
            self.attempted,
            self.failed
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>9}",
            "end-to-end", "plain", "traced", "overhead"
        );
        for ((name, p, unit), (_, t, _)) in plain.iter().zip(&traced) {
            println!(
                "  {name:<16} {p:>14.4} {t:>14.4} {:>+8.1}%  {unit}",
                (ratio(*t, *p) - 1.0) * 100.0
            );
        }
        let layer = self.per_layer(crypto);
        let get = |k: &str| layer.iter().find(|m| m.0 == k).map_or(0.0, |m| m.1);
        println!(
            "  bytes per op: modeled {:.0} B | encoded payload {:.0} B | wire {:.0} B",
            get("bytes.modeled_per_op"),
            get("bytes.payload_per_op"),
            get("bytes.wire_per_op")
        );
        let (_, f) = self.workload.nf();
        if matches!(self.workload, Workload::TcpWtsN16 | Workload::TcpSbsN10) {
            println!(
                "  paper bound: core.decide_hops_max {} vs WTS 2f+5 = {} and SbS 5+4f = {} (f = {f}); printed, not gated",
                get("core.decide_hops_max"),
                2 * f + 5,
                5 + 4 * f
            );
        }
        let mut text = String::new();
        for (name, v, unit) in &layer {
            let _ = writeln!(text, "  {name:<36} {v:>14.4} {unit}");
        }
        print!("{text}");
        for why in self.absent() {
            println!("  absent: {why}");
        }
    }

    /// Why some per-layer metrics of this workload read zero.
    fn absent(&self) -> Vec<&'static str> {
        let mut v = vec!["core.*.<kind> of kinds this workload's protocol does not send"];
        match self.workload {
            Workload::SimRsmN7 => v.extend([
                "net.*, bytes.wire_per_op: the simulator has no sockets or frames",
                "crypto.verifies_per_op, crypto.proof_cache_hit_ratio, core.proof_*: GWTS is unsigned",
            ]),
            Workload::TcpRsmN4 => v.extend([
                "crypto.verifies_per_op, crypto.proof_cache_hit_ratio, core.proof_*: GWTS is unsigned",
            ]),
            Workload::TcpWtsN16 => v.extend([
                "crypto.verifies_per_op, crypto.proof_cache_hit_ratio, core.proof_*: WTS is unsigned",
                "rsm.*: one-shot agreement has no RSM client",
            ]),
            Workload::TcpSbsN10 => v.extend(["rsm.*: one-shot agreement has no RSM client"]),
        }
        if matches!(self.workload, Workload::TcpRsmN4 | Workload::SimRsmN7) {
            v.push("core.decide_hops_max: RSM ops have no single decision (see op_hops_p50)");
        } else {
            v.push("rsm.decides_per_op: counts GWTS decisions only");
        }
        v
    }

    /// Writes handler spans and op spans, one per line, to
    /// `<target dir>/perfbench-trace/<workload>-seed<seed>.tsv`.
    pub fn write_spans(&self, runs: &[Deployment], name: &str, seed: u64) -> std::io::Result<()> {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
        )
        .join("perfbench-trace");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}-seed{seed}.tsv"));
        let mut out = String::from("span\tdeployment\tnode\tseq\tkind\tstart_ns\tdur_ns\n");
        for (k, d) in runs.iter().enumerate().filter(|(_, d)| d.traced) {
            for (node, s) in &d.spans {
                let _ = writeln!(
                    out,
                    "handler\t{k}\t{node}\t-\t{}\t{}\t{}",
                    s.kind, s.start_ns, s.dur_ns
                );
            }
            for o in &d.ops {
                let kind = if o.read { "read" } else { "op" };
                let _ = writeln!(
                    out,
                    "op\t{k}\t{}\t{}\t{kind}\t{}\t{}",
                    o.node,
                    o.seq,
                    o.submit_ns,
                    o.done_ns - o.submit_ns
                );
            }
        }
        std::fs::write(&path, out)?;
        println!("  spans written to {}", path.display());
        Ok(())
    }

    /// The result line.
    pub fn json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
