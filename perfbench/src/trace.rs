//! Spans for the traced run, recorded around the benchmark's own calls
//! into each layer's public functions, and the per-layer self times
//! derived from them.
//!
//! A span has a name `<layer>.<function>`, a start and end, the span that
//! caused it (`parent`) and the request it belongs to. Some calls are
//! opaque: the benchmark cannot see inside a served round trip or inside
//! `run_session`, so it replays their parts in-process right after them.
//! A replayed part names the opaque span in `replays`. A span's self time
//! is its duration minus its children's and minus the parts that replay
//! it; summed over one request, the self times of all its spans equal the
//! request's own duration, so the layers partition the request's time.

use crate::alloc;
use crate::json::Obj;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Ids are unique within one [`Tracer`]; 0 means none.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub replays: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes the recording thread allocated inside the span.
    pub alloc_bytes: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// A per-thread span recorder; spans stay in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    /// High bits of every id and request number this tracer hands out, so
    /// the spans of several threads merge without collisions.
    base: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            base: thread << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn fresh(&mut self) -> u64 {
        self.next += 1;
        self.base | self.next
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new request; close it with [`Tracer::end`].
    pub fn request(&mut self, name: &'static str) -> Root {
        let id = self.fresh();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: 0,
            replays: 0,
            name,
            req: id,
            start_ns,
            end_ns: start_ns,
            alloc_bytes: alloc::thread(),
        });
        Root {
            index: self.spans.len() - 1,
            id,
        }
    }

    /// Closes a request's root span.
    pub fn end(&mut self, root: Root) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[root.index];
        span.end_ns = end_ns;
        span.alloc_bytes = alloc::thread() - span.alloc_bytes;
    }

    /// Runs `f` inside a span named `name` under `root`; `replays` names
    /// the opaque span this call re-executes a part of (0 for none).
    /// Returns `f`'s result and the new span's id.
    pub fn span<T>(
        &mut self,
        root: &Root,
        name: &'static str,
        replays: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.fresh();
        let alloc0 = alloc::thread();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: root.id,
            replays,
            name,
            req: root.id,
            start_ns,
            end_ns,
            alloc_bytes: alloc::thread() - alloc0,
        });
        (out, id)
    }
}

/// The open root span of one request.
pub struct Root {
    index: usize,
    id: u64,
}

/// Each layer with the metric its self time is reported under; a span's
/// layer is its name up to the first dot (`perfbench` is the benchmark's
/// own glue between calls).
const LAYERS: [(&str, &str); 8] = [
    ("perfbench", "perfbench.self_us"),
    ("kcm_serve", "kcm_serve.self_us"),
    ("kcm_system", "kcm_system.self_us"),
    ("kcm_prolog", "kcm_prolog.self_us"),
    ("kcm_arch", "kcm_arch.self_us"),
    ("kcm_compiler", "kcm_compiler.self_us"),
    ("kcm_native", "kcm_native.self_us"),
    ("kcm_cpu", "kcm_cpu.self_us"),
];

/// What a traced run derives from its spans.
#[derive(Debug, Default)]
pub struct Derived {
    /// Per layer, by metric name: mean self time per request whose root
    /// is named `root`.
    pub self_us: Vec<(&'static str, f64)>,
    /// Per span name: mean duration per occurrence.
    pub mean_us: BTreeMap<&'static str, f64>,
    /// Per span name: mean self time per occurrence.
    pub mean_self_us: BTreeMap<&'static str, f64>,
    /// Per span name: mean bytes allocated per occurrence.
    pub mean_alloc_b: BTreeMap<&'static str, f64>,
}

impl Derived {
    /// Mean duration of the spans named `name`, in µs (0 if none ran).
    pub fn mean(&self, name: &str) -> f64 {
        self.mean_us.get(name).copied().unwrap_or(0.0)
    }

    /// Mean self time of the spans named `name`, in µs.
    pub fn mean_self(&self, name: &str) -> f64 {
        self.mean_self_us.get(name).copied().unwrap_or(0.0)
    }

    /// Mean KiB the recording thread allocated inside spans named `name`.
    pub fn alloc_kb(&self, name: &str) -> f64 {
        self.mean_alloc_b.get(name).copied().unwrap_or(0.0) / 1024.0
    }
}

/// Derives self times from `spans`, attributing per-layer self time over
/// the requests whose root span is named `root`.
pub fn derive(spans: &[Span], root: &str) -> Derived {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        for owner in [s.parent, s.replays] {
            if owner != 0 {
                *covered.entry(owner).or_default() += s.dur_ns();
            }
        }
    }
    let roots: BTreeMap<u64, &str> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.id, s.name))
        .collect();
    let mut d = Derived::default();
    let mut layer_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut per_name: BTreeMap<&'static str, (u64, f64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let self_ns = s.dur_ns() as f64 - covered.get(&s.id).copied().unwrap_or(0) as f64;
        let e = per_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns() as f64;
        e.2 += self_ns;
        e.3 += s.alloc_bytes as f64;
        if roots.get(&s.req) == Some(&root) {
            *layer_ns.entry(s.layer()).or_default() += self_ns;
        }
    }
    let requests = roots.values().filter(|&&name| name == root).count();
    for (layer, metric) in LAYERS {
        let ns = layer_ns.get(layer).copied().unwrap_or(0.0);
        d.self_us.push((metric, ns / 1e3 / requests.max(1) as f64));
    }
    for (name, (n, dur, self_ns, alloc_b)) in per_name {
        let n = n as f64;
        d.mean_us.insert(name, dur / 1e3 / n);
        d.mean_self_us.insert(name, self_ns / 1e3 / n);
        d.mean_alloc_b.insert(name, alloc_b / n);
    }
    d
}

/// Writes every span as one JSON line to `path`, creating its directory.
///
/// # Errors
///
/// File-system errors.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut o = Obj::new();
        o.int("id", s.id)
            .int("parent", s.parent)
            .int("replays", s.replays)
            .str("name", s.name)
            .int("req", s.req)
            .int("start_ns", s.start_ns)
            .int("end_ns", s.end_ns)
            .int("alloc_bytes", s.alloc_bytes);
        writeln!(out, "{}", o.finish())?;
    }
    out.flush()
}
