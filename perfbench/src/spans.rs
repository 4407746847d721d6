//! Host-time spans recorded around every call the benchmark makes into a
//! layer. Spans stay in memory and are written once, at the end, as a
//! Chrome trace (`chrome://tracing` / Perfetto), the same viewer the
//! simulator's sim-time `--trace-out` files open in.

use mpiq_bench::report::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers a span can be charged to. Spans of the benchmark's own
/// bookkeeping (a whole pass, a workload) use `perfbench`.
pub const LAYERS: &[&str] = &[
    "bench", "service", "mpi", "dessim", "memsim", "cpusim", "alpu", "net",
];

struct Span {
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    counts: Vec<(&'static str, u64)>,
}

/// Records nested spans when on; every call is one branch when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, layer: &'static str, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(layer, name);
        let r = f();
        self.end(s);
        r
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_with(id, &[]);
    }

    /// Close a span and attach the counts measured at its boundary.
    pub fn end_with(&mut self, id: SpanId, counts: &[(&'static str, u64)]) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.counts.extend_from_slice(counts);
    }

    /// Per-layer self time in seconds: each span's duration minus the
    /// part its direct children cover, summed by layer.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as one Chrome trace-event JSON document.
    pub fn chrome_json(&self) -> String {
        let mut events = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"host time (perfbench)\"}}"
                .to_string(),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![format!("\"id\":{i}")];
            if let Some(p) = s.parent {
                args.push(format!("\"parent\":{p}"));
            }
            args.extend(s.counts.iter().map(|(k, v)| format!("{}:{v}", json_str(k))));
            events.push(format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                json_str(&s.name),
                json_str(s.layer),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                args.join(",")
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_export_parses() {
        let mut t = Tracer::new(true);
        let outer = t.begin("bench", "outer");
        let inner = t.begin("mpi", "inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end_with(inner, &[("events", 7)]);
        t.end(outer);
        let selfs = t.self_seconds();
        assert!(selfs["mpi"] >= 0.005);
        assert!(selfs["bench"] < selfs["mpi"]);
        mpiq_bench::jsonlint::validate(&t.chrome_json()).expect("valid chrome trace");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("mpi", "x");
        t.end(s);
        assert!(t.self_seconds().values().all(|v| *v == 0.0));
    }
}
