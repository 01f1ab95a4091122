//! What one measured pass reports, and the metric names the benchmark
//! publishes.

use crate::stats::Tally;
use crate::sys::Report;

/// End-to-end metrics of the batch and stream workloads: `(name, unit)`.
/// A run prints every one with `--trace 0`.
const PIPELINE_END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("blocks_per_s", "blocks/s"),
    ("rounds_per_s", "rounds/s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics of `serve-mix`.
const SERVE_END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps_sustained", "req/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The end-to-end metrics `workload` reports.
pub fn end_to_end(workload: &str) -> &'static [(&'static str, &'static str)] {
    if workload == "serve-mix" {
        &SERVE_END_TO_END
    } else {
        &PIPELINE_END_TO_END
    }
}

/// Per-layer metrics every run prints with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("simnet.generate_us", "us"),
    ("probing.probe_us", "us"),
    ("probing.probes_sent", "count"),
    ("availability.estimate_us", "us"),
    ("availability.clean_us", "us"),
    ("availability.fill_fraction", "ratio"),
    ("spectral.fft_len", "count"),
    ("spectral.fft_us", "us"),
    ("spectral.fft_ns.n4451.scalar", "ns"),
    ("spectral.fft_ns.n4451.lane8", "ns"),
    ("spectral.fft_ns.n1833.scalar", "ns"),
    ("spectral.fft_ns.n1833.lane8", "ns"),
    ("spectral.batched_fraction", "ratio"),
    ("spectral.plan_cache_misses", "count"),
    ("spectral.classify_us", "us"),
    ("worldrun.self_us", "us"),
    ("worldrun.parallel_efficiency", "ratio"),
    ("geoecon.join_us", "us"),
    ("binfmt.encode_us", "us"),
    ("binfmt.bytes_per_row", "bytes"),
    ("obs.stage_us.probe", "us"),
    ("obs.stage_us.estimate", "us"),
    ("obs.stage_us.clean", "us"),
    ("obs.stage_us.fft", "us"),
    ("obs.stage_us.classify", "us"),
    ("trace.per_block_us", "us"),
    ("trace.layer_sum_us", "us"),
    ("transport.next_event_ns", "ns"),
    ("transport.frames", "count"),
    ("transport.events", "count"),
    ("transport.reconnects", "count"),
    ("transport.duplicates", "count"),
    ("transport.heartbeats_missed", "count"),
    ("ingest.feeder_wait_s", "s"),
    ("ingest.backpressure_stalls", "count"),
    ("ingest.queue_high_water", "count"),
    ("ingest.rounds_routed", "count"),
    ("ingest.checkpoints", "count"),
    ("ingest.direct_rounds_per_s", "rounds/s"),
    ("ingest.engine_rounds_per_s.1", "rounds/s"),
    ("ingest.engine_rounds_per_s.n", "rounds/s"),
    ("ingest.shard_speedup", "ratio"),
    ("streaming.push_ns", "ns"),
    ("streaming.live_classifications", "count"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_record", "bytes"),
    ("journal.replay_ms", "ms"),
    ("binfmt.decode_ms", "ms"),
    ("serve.build_ms", "ms"),
    ("serve.route_us.block", "us"),
    ("serve.route_us.group", "us"),
    ("serve.route_us.query_hit", "us"),
    ("serve.route_us.query_miss", "us"),
    ("serve.route_us.metrics", "us"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve.lru_evictions", "count"),
    ("serve.wire_us", "us"),
    ("serve.generator_late_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.responses_err", "count"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Seconds one run measures.
const RUN_SECONDS: u32 = 30;

/// The workloads `BENCHMARK.json` lists, and why each was chosen.
/// `serve-mix` runs by hand only: its open-loop tail figures were not
/// steady on a shared host (see the README).
const LISTED: [(&str, &str); 2] = [
    (
        "batch-35d",
        "The paper run: 2000 blocks x 35 days analyzed, joined and encoded at threads=nproc; \
         probing and the 8-lane Bluestein FFT (n=4451) own the time, ingest and serve idle.",
    ),
    (
        "stream-35d",
        "Backlog drain: a pre-probed 600-block x 35-day feed over loopback TCP into sharded \
         ingest and a v2 journal; per-round wire, queue, live-FFT and journal cost, no probing.",
    ),
];

/// Share of the parent's median an end-to-end metric may worsen by: the
/// largest allowed for all but memory, since ten seeds on the shared
/// reference box spread rates and CPU time by about a third of that.
fn bound(name: &str) -> f64 {
    if name == "peak_rss_mib" {
        0.1
    } else {
        0.25
    }
}

/// `"higher"` when a larger value of metric `name` is better.
fn better(name: &str) -> &'static str {
    let higher = name.contains("_per_s")
        || matches!(
            name,
            "spectral.batched_fraction"
                | "worldrun.parallel_efficiency"
                | "transport.events"
                | "ingest.rounds_routed"
                | "ingest.checkpoints"
                | "ingest.shard_speedup"
                | "serve.lru_hit_ratio"
                | "serve.requests"
                | "trace.spans"
        );
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, generated from the tables above
/// (`perfbench describe > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    let list = |rows: Vec<String>| rows.join(",\n");
    let workloads = list(
        LISTED
            .iter()
            .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    let e2e = list(
        PIPELINE_END_TO_END
            .iter()
            .map(|(n, u)| {
                format!(
                    "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\", \"bound\": {}}}",
                    better(n),
                    bound(n)
                )
            })
            .collect(),
    );
    let layers = list(
        PER_LAYER
            .iter()
            .map(|(n, u)| {
                format!(
                    "    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{}\"}}",
                    better(n)
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n"
    )
}

/// Derives a workload's world seed from the run seed.
pub fn mix_seed(seed: u64, tag: u64) -> u64 {
    // splitmix64 finalizer over seed ⊕ tag.
    let mut z = (seed ^ tag.rotate_left(32)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Named values a pass measured, in insertion order.
#[derive(Debug, Default)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, v: f64) {
        self.set_owned(name.to_string(), v);
    }

    /// [`set`](Self::set) with an owned name.
    pub fn set_owned(&mut self, name: String, v: f64) {
        match self.0.iter_mut().find(|(k, _)| *k == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name, v)),
        }
    }

    /// Adds `other`'s values, keeping ours where both have one.
    pub fn merge_missing(&mut self, other: Values) {
        for (k, v) in other.0 {
            if !self.0.iter().any(|(m, _)| *m == k) {
                self.0.push((k, v));
            }
        }
    }
}

/// What one measured pass (one child process) found.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Set-up before the timed part, s.
    pub setup_s: f64,
    /// Timed part, wall s.
    pub wall_s: f64,
    /// User+system CPU over the timed part, s.
    pub cpu_s: f64,
    /// Peak resident set over the timed part, MiB.
    pub peak_rss_mib: f64,
    /// The workload's own end-to-end values (rates, latencies).
    pub e2e: Values,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Correctness failures, empty when every check passed.
    pub failures: Vec<String>,
    /// Digest of the workload's output bytes.
    pub digest: String,
    /// Per-layer values (traced passes).
    pub layers: Values,
}

impl PassOut {
    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: check failed: {why}");
        self.failures.push(why);
    }

    /// The `@key value` report a child prints.
    pub fn report(&self) -> Report {
        let mut r = Report::default();
        r.num("e2e.setup_s", self.setup_s);
        r.num("e2e.cpu_s", self.cpu_s);
        r.num("e2e.peak_rss_mib", self.peak_rss_mib);
        r.num("wall_s", self.wall_s);
        for (k, v) in &self.e2e.0 {
            r.num(&format!("e2e.{k}"), *v);
        }
        r.num("attempted", self.tally.attempted as f64);
        r.num("failed", self.tally.failed as f64);
        r.num("check_failures", self.failures.len() as f64);
        r.word("digest", if self.digest.is_empty() { "-" } else { &self.digest });
        for (k, v) in &self.layers.0 {
            r.num(&format!("layer.{k}"), *v);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `perfbench describe > BENCHMARK.json`"
        );
    }
}
