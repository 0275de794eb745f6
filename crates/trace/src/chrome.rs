//! Chrome `trace_event` export.
//!
//! Converts a [`TraceLog`] into the JSON object format
//! consumed by `chrome://tracing` and Perfetto: spans become complete
//! (`"ph":"X"`) events, instants become `"ph":"i"`, and final counter
//! values are appended as one `"ph":"C"` sample at the end of the
//! timeline. Timestamps are microseconds (the format's unit); the
//! simulated worker index is mapped to the thread id so each worker
//! gets its own track.

use crate::TraceLog;
use het_json::Json;

/// Training-side components render in process 0; the `serve` component
/// gets its own process lane so request handling reads as a separate
/// swim-lane next to the training timeline, and the `prefetcher` gets
/// one so its in-flight transfer spans visibly overlap the compute
/// spans on the worker tracks beside it.
fn pid_of(comp: &str) -> u64 {
    match comp {
        "serve" => 1,
        "prefetcher" => 2,
        _ => 0,
    }
}

fn process_name(pid: u64, name: &str) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str("process_name".to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::UInt(pid)),
        ("tid".to_string(), Json::UInt(0)),
        (
            "args".to_string(),
            Json::Obj(vec![("name".to_string(), Json::Str(name.to_string()))]),
        ),
    ])
}

/// Renders the log as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing`.
pub fn to_chrome_trace(log: &TraceLog) -> String {
    let mut events = Vec::new();
    // Only label the process lanes when an extra lane is actually in
    // use — single-process training traces stay exactly as before.
    let uses = |comp: &str| {
        log.events.iter().any(|e| e.comp == comp) || log.counters.iter().any(|c| c.comp == comp)
    };
    let has_serve = uses("serve");
    let has_prefetch = uses("prefetcher");
    if has_serve || has_prefetch {
        events.push(process_name(0, "het-train"));
    }
    if has_serve {
        events.push(process_name(1, "het-serve"));
    }
    if has_prefetch {
        events.push(process_name(2, "het-prefetch"));
    }
    let mut t_end_us = 0.0f64;
    for e in &log.events {
        let ts = e.t_ns as f64 / 1_000.0;
        let tid = e.worker.unwrap_or(u64::MAX); // global events on their own track
        let mut obj = vec![
            (
                "name".to_string(),
                Json::Str(format!("{}.{}", e.comp, e.name)),
            ),
            ("cat".to_string(), Json::Str(e.comp.to_string())),
            ("pid".to_string(), Json::UInt(pid_of(&e.comp))),
            ("tid".to_string(), Json::UInt(tid)),
            ("ts".to_string(), Json::Num(ts)),
        ];
        match e.dur_ns {
            Some(dur) => {
                let dur_us = dur as f64 / 1_000.0;
                obj.push(("ph".to_string(), Json::Str("X".to_string())));
                obj.push(("dur".to_string(), Json::Num(dur_us)));
                t_end_us = t_end_us.max(ts + dur_us);
            }
            None => {
                obj.push(("ph".to_string(), Json::Str("i".to_string())));
                obj.push(("s".to_string(), Json::Str("t".to_string())));
                t_end_us = t_end_us.max(ts);
            }
        }
        if !e.fields.is_empty() {
            obj.push(("args".to_string(), crate::payload(e)));
        }
        events.push(Json::Obj(obj));
    }
    for c in &log.counters {
        let name = match c.idx {
            Some(idx) => format!("{}.{}[{}]", c.comp, c.name, idx),
            None => format!("{}.{}", c.comp, c.name),
        };
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(name)),
            ("cat".to_string(), Json::Str(c.comp.to_string())),
            ("ph".to_string(), Json::Str("C".to_string())),
            ("pid".to_string(), Json::UInt(pid_of(&c.comp))),
            ("tid".to_string(), Json::UInt(0)),
            ("ts".to_string(), Json::Num(t_end_us)),
            (
                "args".to_string(),
                Json::Obj(vec![("value".to_string(), Json::UInt(c.value))]),
            ),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, CounterEntry, TraceEvent};

    #[test]
    fn chrome_export_is_parseable_and_shaped() {
        let log = TraceLog {
            meta: vec![],
            events: vec![
                TraceEvent {
                    t_ns: 2_000,
                    worker: Some(1),
                    tid: None,
                    comp: "trainer".into(),
                    name: "read".into(),
                    dur_ns: Some(1_500),
                    fields: vec![field("keys", 4u64)],
                },
                TraceEvent {
                    t_ns: 5_000,
                    worker: None,
                    tid: None,
                    comp: "ps".into(),
                    name: "failover".into(),
                    dur_ns: None,
                    fields: vec![],
                },
            ],
            counters: vec![CounterEntry {
                comp: "cache".into(),
                name: "hits".into(),
                idx: Some(0),
                value: 9,
            }],
        };
        let doc = to_chrome_trace(&log);
        let parsed = het_json::from_str(&doc).unwrap();
        let Json::Obj(fields) = parsed else {
            panic!("expected object")
        };
        let Some((_, Json::Arr(events))) = fields.iter().find(|(k, _)| k == "traceEvents") else {
            panic!("missing traceEvents")
        };
        assert_eq!(events.len(), 3);
        let encoded = doc;
        assert!(encoded.contains(r#""ph":"X""#));
        assert!(encoded.contains(r#""ph":"i""#));
        assert!(encoded.contains(r#""ph":"C""#));
        assert!(encoded.contains(r#""name":"cache.hits[0]""#));
        // No serve items ⇒ no process metadata, single pid-0 lane.
        assert!(!encoded.contains(r#""ph":"M""#));
        assert!(!encoded.contains(r#""pid":1"#));
    }

    #[test]
    fn serve_events_get_their_own_process_lane() {
        let log = TraceLog {
            meta: vec![],
            events: vec![
                TraceEvent {
                    t_ns: 1_000,
                    worker: Some(0),
                    tid: None,
                    comp: "trainer".into(),
                    name: "iteration".into(),
                    dur_ns: Some(500),
                    fields: vec![],
                },
                TraceEvent {
                    t_ns: 2_000,
                    worker: Some(1),
                    tid: None,
                    comp: "serve".into(),
                    name: "batch".into(),
                    dur_ns: Some(700),
                    fields: vec![field("n", 3u64)],
                },
            ],
            counters: vec![CounterEntry {
                comp: "serve".into(),
                name: "requests".into(),
                idx: Some(1),
                value: 3,
            }],
        };
        let doc = to_chrome_trace(&log);
        let parsed = het_json::from_str(&doc).unwrap();
        let Json::Obj(fields) = parsed else {
            panic!("expected object")
        };
        let Some((_, Json::Arr(events))) = fields.iter().find(|(k, _)| k == "traceEvents") else {
            panic!("missing traceEvents")
        };
        // 2 process_name metadata + 2 events + 1 counter.
        assert_eq!(events.len(), 5);
        assert!(doc.contains(r#""name":"het-serve""#));
        assert!(doc.contains(r#""name":"het-train""#));
        // The serve span and counter sit in pid 1; the trainer in pid 0.
        let pid_of_named = |needle: &str| {
            events
                .iter()
                .find_map(|e| {
                    let Json::Obj(o) = e else { return None };
                    let name = o.iter().find(|(k, _)| k == "name")?;
                    if matches!(&name.1, Json::Str(s) if s.contains(needle)) {
                        o.iter().find(|(k, _)| k == "pid").map(|(_, v)| v.clone())
                    } else {
                        None
                    }
                })
                .unwrap()
        };
        assert_eq!(pid_of_named("serve.batch"), Json::UInt(1));
        assert_eq!(pid_of_named("serve.requests"), Json::UInt(1));
        assert_eq!(pid_of_named("trainer.iteration"), Json::UInt(0));
    }
}
