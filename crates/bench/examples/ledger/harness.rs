//! Shared measuring equipment: host-clock spans, order statistics, the
//! metric list a run reports, and the host record printed beside it.

use cusha::obs::json::push_str_lit;
use cusha::obs::trace::ArgVal;
use cusha::obs::Tracer;
use std::time::Instant;

/// Layer a span's self time is booked under when the call it wraps belongs
/// to the benchmark itself (pass root, cell bookkeeping, oracle compares).
pub const HARNESS: &str = "harness";

/// One host-clock span around a call into a layer's public function.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub pass: u32,
}

/// In-memory span recorder. Switched off it never reads the clock, so the
/// end-to-end run pays nothing for the call sites it shares with the
/// traced run.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Passes are numbered from 1; spans recorded outside any pass carry 0.
    pub fn begin_pass(&mut self) {
        self.pass += 1;
    }

    /// Runs `f` inside a span of `layer`; nested `scope` calls made through
    /// the handed-down recorder become its children.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_s = self.t0.elapsed().as_secs_f64();
        r
    }

    /// Self time (span minus the part its children cover) per layer, in
    /// seconds, summed over the spans of one pass.
    pub fn self_seconds_by_layer(&self, pass: u32) -> Vec<(&'static str, f64)> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(&child_s) {
            if s.pass != pass {
                continue;
            }
            let own = (s.end_s - s.start_s - covered).max(0.0);
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Renders the spans through `obs::chrome_trace_json`'s event shape.
    /// The host clock gets a process lane of its own (`HOST_PID`), so a
    /// viewer never lays these spans over modeled-clock device lanes; one
    /// thread lane per layer.
    pub fn chrome_json(&self) -> String {
        const HOST_PID: u32 = 1000;
        let tracer = Tracer::with_capacity(self.spans.len().max(1));
        tracer.name_process(HOST_PID, "host clock (ledger)");
        let mut lanes: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !lanes.contains(&s.layer) {
                tracer.name_lane(HOST_PID, lanes.len() as u32, s.layer);
                lanes.push(s.layer);
            }
        }
        for (id, s) in self.spans.iter().enumerate() {
            let tid = lanes.iter().position(|l| *l == s.layer).unwrap_or(0) as u32;
            tracer.complete_with(
                HOST_PID,
                tid,
                "host",
                s.name,
                s.start_s,
                s.end_s - s.start_s,
                || {
                    vec![
                        ("id", ArgVal::U64(id as u64)),
                        (
                            "parent",
                            ArgVal::U64(s.parent.map_or(u64::MAX, |p| p as u64)),
                        ),
                        ("pass", ArgVal::U64(u64::from(s.pass))),
                        ("layer", ArgVal::Str(s.layer.to_string())),
                    ]
                },
            );
        }
        cusha::obs::chrome_trace_json(&tracer)
    }
}

/// Milliseconds `f` took on the host clock, with its result.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// Median of `reps` timings of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps.max(1)).map(|_| timed_ms(&mut f).0).collect();
    median(&v)
}

/// Nanoseconds per call of `f` over a batch of `calls`, median of five
/// batches; for calls too short to time one by one.
pub fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&batches)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile; `0.0` for an empty sample.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// One reported number; its unit is the contract's (`spec::Spec`).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// Reports the median of `samples` with their count.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        self.put(name, median(samples), samples.len());
    }

    /// Reports the median host milliseconds of `reps` calls of `f`.
    pub fn time_ms(&mut self, name: &str, reps: usize, f: impl FnMut()) {
        self.put(name, median_ms(reps, f), reps);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Restarts the kernel's peak-resident-set watermark at the current
/// resident set, so the next `peak_rss_mb` reads the peak since this call.
/// Where the kernel refuses, the watermark simply keeps covering the whole
/// process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB: the workload's peak resident set, since
/// every workload runs in a process of its own.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `"nproc":..,"git_rev":..,"rustc":..` — what the numbers were measured on.
pub fn host_record_json() -> String {
    let mut out = format!("\"nproc\":{},\"git_rev\":", nproc());
    push_str_lit(
        &mut out,
        &command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    );
    out.push_str(",\"rustc\":");
    push_str_lit(&mut out, &command_line("rustc", &["--version"]));
    out
}

/// FNV-1a over a string; the `counts` digest.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// SplitMix64: the benchmark's only random source, so a seed fixes every
/// generated input on every platform.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n.max(1))) as u32
    }
}

/// Host seconds one `HostReference` slice is taken to cost: every host-clock
/// end-to-end metric is quoted as if the host ran the slice in exactly this
/// time. The figure is this class of host (a 2.1 GHz Sapphire Rapids guest)
/// in a calm spell; only ratios to it matter.
pub const REFERENCE_SLICE_S: f64 = 0.020;

/// A fixed piece of benchmark-owned work that tells how fast the host is
/// right now. The guest shares its cores with other guests, and the same
/// program runs 15–40% slower for seconds or minutes at a time with nothing
/// in the guest to show for it; slices taken beside and inside each timed
/// region let a run quote its times at one reference host speed instead of
/// at whatever speed the spell gave it. The work is core-bound and keeps
/// several instructions in flight every cycle, out of a table that fits the
/// second-level cache, because that is what the simulator's inner loops do
/// (README, *Host speed*, has what else was tried); it calls nothing of the
/// program's, so no change to the program can move it.
pub struct HostReference {
    table: Vec<u32>,
    /// Slice times of the open window, seconds.
    samples: Vec<f64>,
    /// Host seconds `tick` has used inside the open window.
    spent_s: f64,
    ticking: bool,
    last: Instant,
}

/// What `HostReference::close` found about the window it closes.
pub struct HostWindow {
    /// Host speed over the window as a share of the reference speed; a time
    /// measured inside the window times this is that time at reference speed.
    pub speed: f64,
    /// Host seconds the window's ticks took, for the caller to take off a
    /// wall time measured around them.
    pub spent_s: f64,
}

impl HostReference {
    /// 512 KB of `u32`: a quarter of the second-level cache.
    const TABLE_WORDS: usize = 128 << 10;
    const STEPS: u64 = 6_000_000;
    /// A tick closer than this to the previous slice does nothing, which
    /// keeps the reference under a tenth of any script's time.
    const TICK_EVERY_S: f64 = 0.25;

    /// Starts the first window with a reading.
    pub fn open() -> Self {
        let mut rng = Rng(0x7265_6665_7265_6e63);
        let mut this = HostReference {
            table: (0..Self::TABLE_WORDS)
                .map(|_| rng.next_u64() as u32)
                .collect(),
            samples: Vec::new(),
            spent_s: 0.0,
            ticking: false,
            last: Instant::now(),
        };
        let first = this.reading();
        this.samples.push(first);
        this
    }

    /// Host seconds of one slice of the fixed work: four independent
    /// shift-xor chains, two loads from and one store to the table per step,
    /// no branch.
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mask = Self::TABLE_WORDS - 1;
        let (mut a, mut b, mut c, mut d) = (
            0x9e37_79b9_7f4a_7c15u64,
            0xbf58_476d_1ce4_e5b9u64,
            0x94d0_49bb_1331_11ebu64,
            0x2545_f491_4f6c_dd1du64,
        );
        let mut acc = 0u64;
        for _ in 0..Self::STEPS {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b ^= b << 13;
            b ^= b >> 7;
            b ^= b << 17;
            c ^= c << 13;
            c ^= c >> 7;
            c ^= c << 17;
            d ^= d << 13;
            d ^= d >> 7;
            d ^= d << 17;
            let loaded =
                u64::from(self.table[a as usize & mask]) ^ u64::from(self.table[b as usize & mask]);
            acc = acc.wrapping_add(loaded);
            self.table[c as usize & mask] = (acc ^ d) as u32;
        }
        std::hint::black_box(acc);
        self.last = Instant::now();
        t.elapsed().as_secs_f64()
    }

    /// The median of three slices, so that one interrupted slice does not
    /// pass for a slow host.
    fn reading(&mut self) -> f64 {
        median(&[self.slice(), self.slice(), self.slice()])
    }

    /// Whether `tick` samples. Traced passes switch it off: a slice inside
    /// the pass would be booked to `harness.other_ms`.
    pub fn set_ticking(&mut self, on: bool) {
        self.ticking = on;
    }

    /// Called by a script between two of its operations, outside their
    /// timers: takes one slice if the last one is `TICK_EVERY_S` old, so the
    /// window's speed is sampled along the script and not only at its ends.
    pub fn tick(&mut self) {
        if self.ticking && self.last.elapsed().as_secs_f64() >= Self::TICK_EVERY_S {
            let t = Instant::now();
            let s = self.slice();
            self.samples.push(s);
            self.spent_s += t.elapsed().as_secs_f64();
        }
    }

    /// Ends the window with a reading, which also starts the next one.
    pub fn close(&mut self) -> HostWindow {
        let last = self.reading();
        self.samples.push(last);
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        let window = HostWindow {
            speed: REFERENCE_SLICE_S / mean,
            spent_s: self.spent_s,
        };
        self.samples.clear();
        self.samples.push(last);
        self.spent_s = 0.0;
        window
    }
}
