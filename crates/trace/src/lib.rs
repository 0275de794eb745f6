//! Structured event tracing and metrics for the HET simulator.
//!
//! The simulator's end-of-run aggregates (`CommStats`, `TimeBreakdown`)
//! say *what* a number is; they cannot say *why* it moved. This crate
//! adds a per-event view: instrumented call sites across `simnet`, `ps`,
//! `cache`, and `core` emit **spans** (phases with a sim-time duration),
//! **instant events** (crashes, failovers, blocking waits), and
//! **counters** (hits, misses, bytes per traffic class) into a
//! thread-local collector. A finished [`TraceLog`] exports as JSONL
//! (one event per line, schema `het-trace-v1`) and as a Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto.
//!
//! [`TraceLog`] is the only trace type: the collector returns one,
//! [`TraceLog::parse`] reads one back from JSONL (checking the schema
//! as it goes), and the `het-oracle` replay checker walks one. Names
//! and field keys are `Cow<'static, str>` ([`Name`]), borrowed from a
//! call site's literals when emitted and owned when parsed; field
//! values are [`het_json::Json`].
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** Tracing is off by default; every
//!    instrumentation macro first reads a thread-local flag and does no
//!    other work when it is clear. Benchmarks run untouched.
//! 2. **Deterministic when enabled.** All timestamps are *simulated*
//!    time, counters live in a `BTreeMap`, and no instrumentation point
//!    sits on a `HashMap`-iteration-ordered path — so a fixed seed
//!    yields a byte-identical trace, which is what makes golden-trace
//!    regression tests possible.
//! 3. **No API threading.** Call sites deep in the cache or PS do not
//!    receive a collector handle; the trainer publishes an ambient
//!    scope (current sim time + worker) via [`set_scope`], and leaf
//!    code attributes events to it.
//!
//! The collector is thread-local on purpose: the simulator itself is
//! single-threaded, and keeping state off shared memory means tests in
//! other threads (including concurrent PS tests) never observe or
//! perturb a trace in progress.

#![warn(missing_docs)]

pub mod chrome;
pub mod replay;
pub mod schema;

use het_json::{Json, ToJson};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

/// Schema identifier written into the JSONL meta line and checked by
/// the validator. Bump when the line shape changes.
pub const SCHEMA_VERSION: &str = "het-trace-v1";

/// A name or payload key: borrowed from the `'static` literal a call
/// site passes when emitted, owned when parsed back from JSONL.
pub type Name = Cow<'static, str>;

/// One structured trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp, nanoseconds since simulation start.
    pub t_ns: u64,
    /// Worker the event is attributed to (`None` = global/round scope).
    pub worker: Option<u64>,
    /// Emitting thread, for traces merged from per-thread buffers
    /// ([`merge_threads`]). `None` on the single-threaded sim backend —
    /// and the field is omitted from the JSONL line when `None`, so sim
    /// traces stay byte-identical to pre-threading fixtures.
    pub tid: Option<u64>,
    /// Emitting component: `"simnet"`, `"ps"`, `"cache"`, `"trainer"`.
    pub comp: Name,
    /// Event name within the component (e.g. `"read"`, `"failover"`).
    pub name: Name,
    /// Span duration in nanoseconds; `None` marks an instant event.
    pub dur_ns: Option<u64>,
    /// Structured payload fields, in emission order.
    pub fields: Vec<(Name, Json)>,
}

impl TraceEvent {
    /// True when the event is `comp/name`.
    pub fn is(&self, comp: &str, name: &str) -> bool {
        self.comp == comp && self.name == name
    }

    /// Looks up a payload field by key.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A payload field as an unsigned integer, if present and unsigned.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key)?.as_u64().ok()
    }
}

/// Final value of one counter in the metrics registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterEntry {
    /// Owning component.
    pub comp: Name,
    /// Counter name.
    pub name: Name,
    /// Optional sub-index (worker for trainer/cache/simnet counters,
    /// shard for PS counters); `None` aggregates across all.
    pub idx: Option<u64>,
    /// Accumulated value.
    pub value: u64,
}

/// A finished trace: run metadata, the event stream in emission order,
/// and the final counter totals in deterministic (sorted) order. The
/// collector returns one, [`TraceLog::parse`] reads one back from its
/// JSONL form, and the `het-oracle` replay checker walks one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// Run metadata key/value pairs written into the JSONL meta line.
    pub meta: Vec<(String, Json)>,
    /// All events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Final counter values, sorted by `(comp, name, idx)`.
    pub counters: Vec<CounterEntry>,
}

impl TraceLog {
    /// Sum of a counter across all sub-indices.
    pub fn counter(&self, comp: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.comp == comp && c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Value of a counter at one specific sub-index.
    pub fn counter_at(&self, comp: &str, name: &str, idx: Option<u64>) -> u64 {
        self.counters
            .iter()
            .find(|c| c.comp == comp && c.name == name && c.idx == idx)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// Events emitted by one component.
    pub fn events_of<'a>(&'a self, comp: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.comp == comp)
    }

    /// The set of components that emitted at least one event or counter.
    pub fn components(&self) -> BTreeSet<&str> {
        self.events
            .iter()
            .map(|e| &*e.comp)
            .chain(self.counters.iter().map(|c| &*c.comp))
            .collect()
    }

    /// Serialises the trace as JSONL (schema `het-trace-v1`): a meta
    /// line, then one line per event in emission order, then one line
    /// per counter in sorted order. Every line ends with `\n`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut meta_fields = vec![
            ("type".to_string(), Json::Str("meta".to_string())),
            ("schema".to_string(), Json::Str(SCHEMA_VERSION.to_string())),
        ];
        meta_fields.extend(self.meta.iter().cloned());
        out.push_str(&Json::Obj(meta_fields).encode());
        out.push('\n');
        for e in &self.events {
            let mut fields = vec![
                ("type".to_string(), Json::Str("event".to_string())),
                ("t".to_string(), Json::UInt(e.t_ns)),
                (
                    "w".to_string(),
                    e.worker.map(Json::UInt).unwrap_or(Json::Null),
                ),
                ("comp".to_string(), Json::Str(e.comp.to_string())),
                ("name".to_string(), Json::Str(e.name.to_string())),
            ];
            if let Some(tid) = e.tid {
                fields.push(("tid".to_string(), Json::UInt(tid)));
            }
            if let Some(dur) = e.dur_ns {
                fields.push(("dur".to_string(), Json::UInt(dur)));
            }
            fields.push(("fields".to_string(), payload(e)));
            out.push_str(&Json::Obj(fields).encode());
            out.push('\n');
        }
        for c in &self.counters {
            let line = Json::Obj(vec![
                ("type".to_string(), Json::Str("counter".to_string())),
                ("comp".to_string(), Json::Str(c.comp.to_string())),
                ("name".to_string(), Json::Str(c.name.to_string())),
                (
                    "idx".to_string(),
                    c.idx.map(Json::UInt).unwrap_or(Json::Null),
                ),
                ("value".to_string(), Json::UInt(c.value)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

/// An event's payload fields as one JSON object.
pub(crate) fn payload(e: &TraceEvent) -> Json {
    Json::Obj(
        e.fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// The counters of a `(comp, name, idx)`-keyed map, in its sorted order.
fn counter_entries(counters: BTreeMap<(Name, Name, Option<u64>), u64>) -> Vec<CounterEntry> {
    counters
        .into_iter()
        .map(|((comp, name, idx), value)| CounterEntry {
            comp,
            name,
            idx,
            value,
        })
        .collect()
}

struct Collector {
    meta: Vec<(String, Json)>,
    events: Vec<TraceEvent>,
    counters: BTreeMap<(Name, Name, Option<u64>), u64>,
    t_ns: u64,
    worker: Option<u64>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Whether tracing is active on this thread. Instrumentation macros
/// check this first; when it is `false` they evaluate none of their
/// arguments.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Runs `f` on this thread's collector, if tracing is on.
#[inline]
fn with_collector(f: impl FnOnce(&mut Collector)) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            f(col);
        }
    });
}

/// Starts collecting on this thread with the given run metadata.
/// Replaces any trace already in progress.
pub fn start(meta: Vec<(String, Json)>) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            meta,
            events: Vec::new(),
            counters: BTreeMap::new(),
            t_ns: 0,
            worker: None,
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops collecting and returns the finished trace. Counters are laid
/// out in sorted `(comp, name, idx)` order. Returns an empty log if
/// tracing was never started.
pub fn finish() -> TraceLog {
    ENABLED.with(|e| e.set(false));
    COLLECTOR.with(|c| match c.borrow_mut().take() {
        Some(col) => TraceLog {
            meta: col.meta,
            events: col.events,
            counters: counter_entries(col.counters),
        },
        None => TraceLog::default(),
    })
}

/// Publishes the ambient scope: the current simulated time and the
/// worker subsequent events/counters are attributed to. The trainer
/// calls this at phase boundaries; leaf code never needs to.
pub fn set_scope(t_ns: u64, worker: Option<u64>) {
    with_collector(|col| {
        col.t_ns = t_ns;
        col.worker = worker;
    });
}

/// One payload field: the call site's `'static` key and the JSON form
/// of `value` (`UInt`, `Int`, `Num`, `Bool` or `Str`).
pub fn field(key: &'static str, value: impl ToJson) -> (Name, Json) {
    (Cow::Borrowed(key), value.to_json())
}

/// Records an event at the ambient scope's time and worker. A `Some`
/// duration makes it a span, `None` an instant event. No-op when
/// tracing is disabled.
pub fn emit(
    comp: &'static str,
    name: &'static str,
    dur_ns: Option<u64>,
    fields: Vec<(Name, Json)>,
) {
    push(comp, name, None, dur_ns, fields);
}

/// Like [`emit`], but with an explicit timestamp (for call sites that
/// know a more precise time than the ambient scope, e.g. a request's
/// arrival).
pub fn emit_at(
    comp: &'static str,
    name: &'static str,
    t_ns: u64,
    dur_ns: Option<u64>,
    fields: Vec<(Name, Json)>,
) {
    push(comp, name, Some(t_ns), dur_ns, fields);
}

/// Appends an event at `t_ns`, or at the ambient time when `None`.
fn push(
    comp: &'static str,
    name: &'static str,
    t_ns: Option<u64>,
    dur_ns: Option<u64>,
    fields: Vec<(Name, Json)>,
) {
    with_collector(|col| {
        col.events.push(TraceEvent {
            t_ns: t_ns.unwrap_or(col.t_ns),
            worker: col.worker,
            tid: None,
            comp: Cow::Borrowed(comp),
            name: Cow::Borrowed(name),
            dur_ns,
            fields,
        });
    });
}

/// Adds `delta` to a counter, attributed to the ambient worker as its
/// sub-index. No-op when tracing is disabled.
#[inline]
pub fn counter_add(comp: &'static str, name: &'static str, delta: u64) {
    with_collector(|col| {
        let idx = col.worker;
        *col.counters
            .entry((Cow::Borrowed(comp), Cow::Borrowed(name), idx))
            .or_insert(0) += delta;
    });
}

/// Adds `delta` to a counter at an explicit sub-index (e.g. a PS shard
/// rather than the ambient worker). No-op when tracing is disabled.
#[inline]
pub fn counter_add_at(comp: &'static str, name: &'static str, idx: Option<u64>, delta: u64) {
    with_collector(|col| {
        *col.counters
            .entry((Cow::Borrowed(comp), Cow::Borrowed(name), idx))
            .or_insert(0) += delta;
    });
}

/// Meta key announcing that a trace's timestamps are wall-clock
/// nanoseconds merged from per-thread buffers (value: `"wall"`). The
/// schema validator switches to per-thread monotonicity rules when it
/// sees this key; sim traces never carry it.
pub const CLOCK_META_KEY: &str = "clock";

/// Merges per-thread trace buffers into one deterministic [`TraceLog`].
///
/// The threaded backend runs one collector per OS thread (the existing
/// thread-local sink, unchanged); at join time the parent thread calls
/// this with each thread's [`finish`]ed log, in thread-id order. The
/// merge rule — the one documented contract the validator and the
/// replay tools rely on — is:
///
/// 1. every event from buffer `i` is tagged `tid = i` (pre-tagged
///    events keep their tag, so re-merging is idempotent);
/// 2. events are **stable-sorted by `(t_ns, tid)`** — wall-clock stamp
///    first, thread id as the tie-breaker — so two runs that produce
///    the same per-thread stamps serialise identically no matter how
///    the OS interleaved the threads;
/// 3. counters are summed across buffers per `(comp, name, idx)` and
///    laid out in sorted order, exactly like a single collector;
/// 4. the merged meta gains `"clock": "wall"` (see [`CLOCK_META_KEY`])
///    unless the caller already set it.
///
/// Within one thread the collector preserves emission order, and stamps
/// from a strictly-increasing wall clock never tie, so the merged
/// stream is per-thread monotone *and* globally `(t, tid)`-sorted —
/// which is what [`schema::validate_jsonl`] checks for wall-clock
/// traces.
pub fn merge_threads(mut meta: Vec<(String, Json)>, parts: Vec<TraceLog>) -> TraceLog {
    if !meta.iter().any(|(k, _)| k == CLOCK_META_KEY) {
        meta.push((CLOCK_META_KEY.to_string(), Json::Str("wall".to_string())));
    }
    let mut events = Vec::new();
    let mut counters = BTreeMap::new();
    for (i, part) in parts.into_iter().enumerate() {
        for mut e in part.events {
            e.tid = Some(e.tid.unwrap_or(i as u64));
            events.push(e);
        }
        for c in part.counters {
            *counters.entry((c.comp, c.name, c.idx)).or_insert(0) += c.value;
        }
    }
    events.sort_by_key(|e| (e.t_ns, e.tid));
    TraceLog {
        meta,
        events,
        counters: counter_entries(counters),
    }
}

/// Emits an instant event at the ambient scope:
/// `event!("trainer", "eval", "metric" => 0.75)`. Field values go
/// through [`field`]; nothing is evaluated when tracing is off.
#[macro_export]
macro_rules! event {
    ($comp:expr, $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $comp,
                $name,
                ::core::option::Option::None,
                ::std::vec![$($crate::field($k, $v)),*],
            );
        }
    };
}

/// Emits a span (an event with a duration in nanoseconds) at the
/// ambient scope: `span!("trainer", "read", dur_ns, "keys" => n)`.
#[macro_export]
macro_rules! span {
    ($comp:expr, $name:expr, $dur:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $comp,
                $name,
                ::core::option::Option::Some($dur),
                ::std::vec![$($crate::field($k, $v)),*],
            );
        }
    };
}

/// Increments a counter by 1 (or by an explicit delta) at the ambient
/// worker: `count!("cache", "hits")`, `count!("simnet", "bytes", n)`.
#[macro_export]
macro_rules! count {
    ($comp:expr, $name:expr) => {
        $crate::counter_add($comp, $name, 1)
    };
    ($comp:expr, $name:expr, $delta:expr) => {
        $crate::counter_add($comp, $name, $delta)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_macros_are_inert() {
        assert!(!enabled());
        event!("trainer", "eval", "metric" => 0.5);
        count!("cache", "hits");
        let log = finish();
        assert!(log.events.is_empty());
        assert!(log.counters.is_empty());
    }

    #[test]
    fn collects_events_counters_and_scope() {
        start(vec![("run".to_string(), Json::Str("test".to_string()))]);
        set_scope(100, Some(3));
        event!("trainer", "eval", "metric" => 0.5, "iter" => 7u64);
        span!("trainer", "read", 42u64, "keys" => 2usize);
        count!("cache", "hits");
        count!("cache", "hits", 4);
        counter_add_at("ps", "pull", Some(1), 2);
        set_scope(200, None);
        event!("ps", "failover", "shard" => 0u64);
        let log = finish();
        assert!(!enabled());

        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[0].t_ns, 100);
        assert_eq!(log.events[0].worker, Some(3));
        assert_eq!(log.events[0].dur_ns, None);
        assert_eq!(log.events[1].dur_ns, Some(42));
        assert_eq!(log.events[2].t_ns, 200);
        assert_eq!(log.events[2].worker, None);

        assert_eq!(log.counter("cache", "hits"), 5);
        assert_eq!(log.counter_at("cache", "hits", Some(3)), 5);
        assert_eq!(log.counter_at("ps", "pull", Some(1)), 2);
        assert_eq!(log.counter("ps", "missing"), 0);
        assert_eq!(
            log.components(),
            ["cache", "ps", "trainer"].into_iter().collect()
        );
    }

    #[test]
    fn emit_at_overrides_time_but_keeps_worker() {
        start(vec![]);
        set_scope(500, Some(1));
        emit_at("trainer", "worker_crash", 333, None, vec![]);
        let log = finish();
        assert_eq!(log.events[0].t_ns, 333);
        assert_eq!(log.events[0].worker, Some(1));
    }

    #[test]
    fn jsonl_shape_and_round_trip() {
        start(vec![("seed".to_string(), Json::UInt(7))]);
        set_scope(10, Some(0));
        span!("trainer", "read", 5u64, "keys" => 1u64);
        event!("trainer", "eval", "metric" => 0.25);
        count!("cache", "misses");
        let log = finish();
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"type":"meta","schema":"het-trace-v1","seed":7}"#
        );
        assert_eq!(
            lines[1],
            r#"{"type":"event","t":10,"w":0,"comp":"trainer","name":"read","dur":5,"fields":{"keys":1}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"type":"event","t":10,"w":0,"comp":"trainer","name":"eval","fields":{"metric":0.25}}"#
        );
        assert_eq!(
            lines[3],
            r#"{"type":"counter","comp":"cache","name":"misses","idx":0,"value":1}"#
        );
        // Every line parses back with the in-tree JSON parser.
        for line in lines {
            het_json::from_str(line).unwrap();
        }
    }

    #[test]
    fn jsonl_parses_back_into_the_same_log() {
        start(vec![("seed".to_string(), Json::UInt(9))]);
        set_scope(5, Some(0));
        span!("trainer", "read", 3u64, "keys" => 4u64);
        set_scope(8, Some(1));
        event!("client", "read_window", "max_lag" => 2u64, "note" => "x", "d" => -1i64);
        counter_add_at("cache", "hits", Some(0), 3);
        counter_add_at("cache", "hits", Some(1), 2);
        let log = finish();
        let parsed = TraceLog::parse(&log.to_jsonl()).unwrap();
        assert_eq!(parsed, log);
        assert_eq!(parsed.counter("cache", "hits"), 5);
        assert_eq!(parsed.counter_at("cache", "hits", Some(1)), 2);
        let window = &parsed.events[1];
        assert!(window.is("client", "read_window"));
        assert_eq!(window.field_u64("max_lag"), Some(2));
        assert!(
            window.field_u64("note").is_none(),
            "string field is not u64"
        );

        // A merged wall-clock trace keeps each event's thread id.
        let merged = merge_threads(vec![], vec![log.clone(), log]);
        let parsed = TraceLog::parse(&merged.to_jsonl()).unwrap();
        assert_eq!(parsed, merged);
        assert_eq!(parsed.events[1].tid, Some(1));
    }

    #[test]
    fn counters_are_sorted_deterministically() {
        start(vec![]);
        counter_add_at("ps", "pull", Some(2), 1);
        counter_add_at("cache", "hits", Some(1), 1);
        counter_add_at("ps", "pull", Some(0), 1);
        counter_add_at("ps", "pull", None, 1);
        let log = finish();
        let order: Vec<(&str, &str, Option<u64>)> = log
            .counters
            .iter()
            .map(|c| (&*c.comp, &*c.name, c.idx))
            .collect();
        assert_eq!(
            order,
            vec![
                ("cache", "hits", Some(1)),
                ("ps", "pull", None),
                ("ps", "pull", Some(0)),
                ("ps", "pull", Some(2)),
            ]
        );
    }

    #[test]
    fn merge_threads_sums_counters_and_sorts_by_stamp_then_tid() {
        let part = |t0: u64, hits: u64| {
            start(vec![]);
            set_scope(t0, Some(0));
            event!("trainer", "compute");
            set_scope(t0 + 10, Some(0));
            event!("trainer", "compute");
            counter_add("cache", "hits", hits);
            finish()
        };
        let a = part(5, 2); // events at t=5, 15
        let b = part(0, 3); // events at t=0, 10
        let merged = merge_threads(vec![("seed".to_string(), Json::UInt(1))], vec![a, b]);
        let order: Vec<(u64, Option<u64>)> =
            merged.events.iter().map(|e| (e.t_ns, e.tid)).collect();
        assert_eq!(
            order,
            vec![(0, Some(1)), (5, Some(0)), (10, Some(1)), (15, Some(0))]
        );
        assert_eq!(merged.counter("cache", "hits"), 5);
        assert!(merged
            .meta
            .iter()
            .any(|(k, v)| k == CLOCK_META_KEY && *v == Json::Str("wall".to_string())));
        // The tid surfaces in the JSONL line; sim traces (tid: None)
        // never carry the key, so existing fixtures are untouched.
        let jsonl = merged.to_jsonl();
        assert!(jsonl.contains(r#""name":"compute","tid":1,"fields""#));
        let sim = part(0, 1).to_jsonl();
        assert!(!sim.contains("tid"));
    }

    #[test]
    fn start_resets_previous_state() {
        start(vec![]);
        count!("cache", "hits");
        start(vec![]);
        let log = finish();
        assert!(log.counters.is_empty());
    }
}
