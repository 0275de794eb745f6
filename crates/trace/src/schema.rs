//! Reader and validator for the `het-trace-v1` JSONL schema.
//!
//! [`TraceLog::parse`] reads a document back into the [`TraceLog`] its
//! writer held, checking line-level shape (required keys, value types),
//! the meta header, and cross-line ordering (meta first, counters after
//! the last event, counters sorted) in the same pass. The golden-trace
//! regression tests and the CI gate run every committed fixture and
//! freshly generated trace through it ([`validate_jsonl`]).

use crate::{CounterEntry, TraceEvent, TraceLog};
use het_json::Json;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// The component taxonomy of `het-trace-v1`. Every event and counter
/// line must name one of these; the validator rejects anything else, so
/// adding a component is a deliberate schema change, not a typo.
///
/// | component | emits |
/// |-----------|-------|
/// | `autoscaler` | events: `scale_up`, `scale_down` (fleet resize decisions with queue/p99 evidence); counters: evals, scale_ups, scale_downs |
/// | `cache`   | events: `policy_switch` (adaptive meta-policy changed its inner eviction policy; fields: from, to, hot_frac, resident, observations); counters: hits, misses, installs, writebacks, evictions, capacity_evictions, invalidations, dirtied, crash_drops, prefetch_installs, prefetch_hits, prefetch_wasted, policy_switches |
/// | `client`  | events: `read_window` (staleness-validation outcome per read) |
/// | `prefetcher` | events: `prefetch_issue` (span: lookahead pull in flight), `prefetch_install` (results landed in a worker cache, with waited_ns), `prefetch_hit` (reads served by unconsumed prefetches), `prefetch_waste`, `prefetch_cancel` (crash/outage invalidation); counters: issued_keys, cancelled_keys (per worker) |
/// | `ps`      | events: `failover`; counters: pulls, pushes (per shard) |
/// | `serve`   | events: `request`, `batch`, `lookup`, `infer`, `replica_crash`, `replica_respawn`, `replica_admit`, `retry_wait`; counters: requests, batches, queue_wait_ns, lookup_ns, infer_ns, degraded_reads, warmed_keys, retry_waits (per replica) |
/// | `simnet`  | events: link/fault schedule milestones |
/// | `store`   | counters: hot_hits, promotions, demotions, clean_drops, cold_read_bytes, cold_write_bytes, compactions (per PS shard; emitted only when a shard runs the tiered store, so flat-store traces are unchanged) |
/// | `supervisor` | events: `detect_crash`, `respawn`, `detect_outage`, `shard_restored`, `split_begin`, `migrate`, `split_done` (crash detection + driven respawns, outage observation from the plan — only the trainer restores shards — and live resharding); counters: heartbeats, detections, respawns, migrated_keys |
/// | `trainer` | events: iteration/fault spans (`blocked_wait`, …); counters: degraded_reads, … |
///
/// Kept sorted so membership checks can binary-search.
pub const KNOWN_COMPONENTS: &[&str] = &[
    "autoscaler",
    "cache",
    "client",
    "prefetcher",
    "ps",
    "serve",
    "simnet",
    "store",
    "supervisor",
    "trainer",
];

/// True when `comp` is part of the registered taxonomy.
pub fn known_component(comp: &str) -> bool {
    KNOWN_COMPONENTS.binary_search(&comp).is_ok()
}

/// What a valid trace contained, for coverage assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of event lines (spans + instants).
    pub events: usize,
    /// Number of span lines (events with a `dur`).
    pub spans: usize,
    /// Number of counter lines.
    pub counters: usize,
    /// Distinct components seen across events and counters.
    pub components: BTreeSet<String>,
    /// Distinct `comp.name` event kinds seen.
    pub event_kinds: BTreeSet<String>,
}

impl TraceSummary {
    /// What `log` contains.
    fn of(log: &TraceLog) -> TraceSummary {
        TraceSummary {
            events: log.events.len(),
            spans: log.events.iter().filter(|e| e.dur_ns.is_some()).count(),
            counters: log.counters.len(),
            components: log.components().into_iter().map(str::to_string).collect(),
            event_kinds: log
                .events
                .iter()
                .map(|e| format!("{}.{}", e.comp, e.name))
                .collect(),
        }
    }
}

/// A non-empty string.
fn non_empty(v: &Json) -> Result<&str, String> {
    match v.as_str()? {
        "" => Err("expected a non-empty string, got \"\"".to_string()),
        s => Ok(s),
    }
}

/// A component of the registered taxonomy.
fn component(v: &Json) -> Result<&str, String> {
    let comp = non_empty(v)?;
    if !known_component(comp) {
        return Err(format!("unknown component '{comp}'"));
    }
    Ok(comp)
}

/// An unsigned integer, or `null` for none.
fn uint_or_null(v: &Json) -> Result<Option<u64>, String> {
    match v {
        Json::Null => Ok(None),
        v => v.as_u64().map(Some),
    }
}

/// Field `key` read by `read`, or `None` when the line has no such key.
fn optional<'a, T>(
    json: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match json.get(key) {
        Ok(_) => json.field(key, read).map(Some),
        Err(_) => Ok(None),
    }
}

/// One pass over a document: what the checks carry from line to line,
/// and the log of the lines checked so far.
#[derive(Default)]
struct Reader {
    log: TraceLog,
    // Wall-clock (threaded, merged) traces carry `"clock":"wall"` in
    // the meta line. The single sim clock is globally serial but NOT
    // monotone in emission order (the trainer re-scopes backwards at
    // phase boundaries), so no ordering is checked for sim traces —
    // exactly the pre-threading behaviour. A merged wall-clock trace,
    // by the documented merge rule (`merge_threads`), must instead be
    // (t, tid)-sorted with a tid on every event; that global order
    // implies per-thread monotonicity, which is what we enforce.
    wall_clock: bool,
}

impl Reader {
    /// Checks line number `line` (1-based) of the document.
    fn line(&mut self, line: usize, raw: &str) -> Result<(), String> {
        if raw.trim().is_empty() {
            return Err("blank line in trace".to_string());
        }
        let json = het_json::from_str(raw).map_err(|e| format!("not valid JSON ({e})"))?;
        if !matches!(json, Json::Obj(_)) {
            return Err("every trace line must be an object".to_string());
        }
        let kind = json.field("type", non_empty)?;
        if line > 1 {
            return match kind {
                "meta" => Err("duplicate meta line".to_string()),
                "event" => self.event(&json),
                "counter" => self.counter(&json),
                other => Err(format!("unknown line type '{other}'")),
            };
        }
        if kind != "meta" {
            return Err("first line must have type 'meta'".to_string());
        }
        let schema = json.field("schema", non_empty)?;
        if schema != crate::SCHEMA_VERSION {
            return Err(format!(
                "schema '{schema}' != expected '{}'",
                crate::SCHEMA_VERSION
            ));
        }
        self.wall_clock =
            matches!(json.get(crate::CLOCK_META_KEY), Ok(Json::Str(c)) if c == "wall");
        if let Json::Obj(meta) = json {
            self.log.meta = meta
                .into_iter()
                .filter(|(k, _)| k != "type" && k != "schema")
                .collect();
        }
        Ok(())
    }

    fn event(&mut self, json: &Json) -> Result<(), String> {
        if !self.log.counters.is_empty() {
            return Err("event after counter tail (counters must come last)".to_string());
        }
        let t_ns = json.field("t", Json::as_u64)?;
        let worker = json.field("w", uint_or_null)?;
        let tid = optional(json, "tid", Json::as_u64)?;
        if self.wall_clock {
            let Some(tid) = tid else {
                return Err("wall-clock trace event is missing 'tid'".to_string());
            };
            if let Some(prev) = self.log.events.last() {
                let prev = (prev.t_ns, prev.tid.unwrap_or(0));
                if (t_ns, tid) < prev {
                    return Err(format!(
                        "wall-clock events out of (t, tid) merge order \
                         (got t={t_ns} tid={tid} after t={} tid={})",
                        prev.0, prev.1
                    ));
                }
            }
        }
        let comp = json.field("comp", component)?;
        let name = json.field("name", non_empty)?;
        let dur_ns = optional(json, "dur", Json::as_u64)?;
        let Json::Obj(fields) = json.get("fields")? else {
            return Err("'fields' must be an object".to_string());
        };
        self.log.events.push(TraceEvent {
            t_ns,
            worker,
            tid,
            comp: Cow::Owned(comp.to_string()),
            name: Cow::Owned(name.to_string()),
            dur_ns,
            fields: fields
                .iter()
                .map(|(k, v)| (Cow::Owned(k.clone()), v.clone()))
                .collect(),
        });
        Ok(())
    }

    fn counter(&mut self, json: &Json) -> Result<(), String> {
        let comp = json.field("comp", component)?;
        let name = json.field("name", non_empty)?;
        let idx = json.field("idx", uint_or_null)?;
        let value = json.field("value", Json::as_u64)?;
        let prev = self.log.counters.last();
        if prev.is_some_and(|p| (&*p.comp, &*p.name, p.idx) >= (comp, name, idx)) {
            return Err("counters out of sorted (comp,name,idx) order".to_string());
        }
        self.log.counters.push(CounterEntry {
            comp: Cow::Owned(comp.to_string()),
            name: Cow::Owned(name.to_string()),
            idx,
            value,
        });
        Ok(())
    }
}

impl TraceLog {
    /// Parses a `het-trace-v1` JSONL document back into the log its
    /// writer held, checking it against the schema in the same pass:
    /// a successful parse implies a valid document. Fails with a
    /// message naming the first offending line.
    pub fn parse(jsonl: &str) -> Result<TraceLog, String> {
        if jsonl.is_empty() {
            return Err("empty trace: missing meta line".to_string());
        }
        let mut reader = Reader::default();
        for (i, raw) in jsonl.lines().enumerate() {
            reader
                .line(i + 1, raw)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        Ok(reader.log)
    }
}

/// Validates a full JSONL trace document against `het-trace-v1`.
/// Returns a [`TraceSummary`] on success and a message naming the first
/// offending line on failure.
pub fn validate_jsonl(input: &str) -> Result<TraceSummary, String> {
    TraceLog::parse(input).map(|log| TraceSummary::of(&log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use het_json::Json;

    fn sample_log() -> crate::TraceLog {
        crate::start(vec![("seed".to_string(), Json::UInt(1))]);
        crate::set_scope(5, Some(0));
        crate::emit("trainer", "read", Some(3), vec![]);
        crate::emit("ps", "failover", None, vec![crate::field("shard", 1u64)]);
        crate::counter_add("cache", "hits", 2);
        crate::counter_add_at("ps", "pull", Some(1), 1);
        crate::finish()
    }

    #[test]
    fn valid_trace_summarises() {
        let jsonl = sample_log().to_jsonl();
        let s = validate_jsonl(&jsonl).unwrap();
        assert_eq!(s.events, 2);
        assert_eq!(s.spans, 1);
        assert_eq!(s.counters, 2);
        assert!(s.components.contains("trainer"));
        assert!(s.components.contains("cache"));
        assert!(s.event_kinds.contains("ps.failover"));
    }

    #[test]
    fn rejects_missing_meta() {
        let jsonl = sample_log().to_jsonl();
        let without_meta: String = jsonl.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(validate_jsonl(&without_meta).is_err());
        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let jsonl = sample_log()
            .to_jsonl()
            .replace("het-trace-v1", "het-trace-v0");
        assert!(validate_jsonl(&jsonl).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        let good = sample_log().to_jsonl();
        for (needle, replacement) in [
            (r#""t":5"#, r#""t":-5"#),            // negative timestamp
            (r#""w":0"#, r#""w":"zero""#),        // wrong worker type
            (r#""fields":{}"#, r#""fields":[]"#), // fields not an object
            (r#""value":2"#, r#""value":2.5"#),   // float counter value
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement {needle} did not apply");
            assert!(validate_jsonl(&bad).is_err(), "should reject {needle}");
        }
        let truncated = good.replace(r#""type":"event""#, r#""type":"mystery""#);
        assert!(validate_jsonl(&truncated).is_err());
    }

    #[test]
    fn parse_rejects_invalid_documents() {
        assert!(TraceLog::parse("").is_err());
        assert!(TraceLog::parse("{\"type\":\"event\"}\n").is_err());
    }

    #[test]
    fn component_registry_is_sorted_and_enforced() {
        let mut sorted = KNOWN_COMPONENTS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KNOWN_COMPONENTS, "registry must stay sorted");
        assert!(known_component("serve"));
        assert!(!known_component("mystery"));

        let good = sample_log().to_jsonl();
        let bad = good.replace(r#""comp":"trainer""#, r#""comp":"mystery""#);
        assert_ne!(bad, good);
        let err = validate_jsonl(&bad).unwrap_err();
        assert!(err.contains("unknown component"), "got: {err}");
        let bad_counter = good.replace(r#""comp":"cache""#, r#""comp":"mystery""#);
        assert!(validate_jsonl(&bad_counter).is_err());
    }

    #[test]
    fn serve_component_is_accepted() {
        crate::start(vec![]);
        crate::set_scope(10, Some(0));
        crate::emit("serve", "request", Some(4), vec![]);
        crate::counter_add("serve", "requests", 1);
        let jsonl = crate::finish().to_jsonl();
        let s = validate_jsonl(&jsonl).unwrap();
        assert!(s.components.contains("serve"));
        assert!(s.event_kinds.contains("serve.request"));
    }

    #[test]
    fn supervision_components_are_accepted() {
        crate::start(vec![]);
        crate::set_scope(20, None);
        crate::emit(
            "supervisor",
            "detect_crash",
            None,
            vec![crate::field("replica", 1u64)],
        );
        crate::emit("autoscaler", "scale_up", None, vec![]);
        crate::counter_add("supervisor", "heartbeats", 3);
        crate::counter_add("autoscaler", "evals", 1);
        let jsonl = crate::finish().to_jsonl();
        let s = validate_jsonl(&jsonl).unwrap();
        assert!(s.components.contains("supervisor"));
        assert!(s.components.contains("autoscaler"));
        assert!(s.event_kinds.contains("supervisor.detect_crash"));
        assert!(s.event_kinds.contains("autoscaler.scale_up"));
    }

    #[test]
    fn store_component_is_accepted() {
        crate::start(vec![]);
        crate::set_scope(30, None);
        crate::counter_add_at("store", "demotions", Some(2), 5);
        crate::counter_add_at("store", "cold_write_bytes", Some(2), 640);
        let jsonl = crate::finish().to_jsonl();
        let s = validate_jsonl(&jsonl).unwrap();
        assert!(s.components.contains("store"));
    }

    #[test]
    fn wall_clock_interleaved_two_thread_stream_validates() {
        // Two per-thread buffers whose stamps interleave (thread 0 at
        // t=10,30; thread 1 at t=20,30): the merged stream must be
        // (t, tid)-sorted — the t=30 tie breaks on tid — and validate.
        let part = |ts: &[u64]| crate::TraceLog {
            meta: vec![],
            events: ts
                .iter()
                .map(|&t| crate::TraceEvent {
                    t_ns: t,
                    worker: Some(0),
                    tid: None,
                    comp: "trainer".into(),
                    name: "compute".into(),
                    dur_ns: None,
                    fields: vec![],
                })
                .collect(),
            counters: vec![],
        };
        let merged = crate::merge_threads(vec![], vec![part(&[10, 30]), part(&[20, 30])]);
        let order: Vec<(u64, Option<u64>)> =
            merged.events.iter().map(|e| (e.t_ns, e.tid)).collect();
        assert_eq!(
            order,
            vec![(10, Some(0)), (20, Some(1)), (30, Some(0)), (30, Some(1))]
        );
        let jsonl = merged.to_jsonl();
        assert!(jsonl.lines().next().unwrap().contains(r#""clock":"wall""#));
        let s = validate_jsonl(&jsonl).unwrap();
        assert_eq!(s.events, 4);

        // Per-thread monotone but mis-merged (global order violated):
        // swapping two lines must be rejected for a wall-clock trace.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.swap(1, 2);
        let shuffled: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let err = validate_jsonl(&shuffled).unwrap_err();
        assert!(err.contains("(t, tid) merge order"), "got: {err}");

        // A wall-clock event without a tid is rejected.
        let untagged = jsonl.replace(r#""tid":1,"#, "");
        assert_ne!(untagged, jsonl);
        let err = validate_jsonl(&untagged).unwrap_err();
        assert!(err.contains("missing 'tid'"), "got: {err}");
    }

    #[test]
    fn sim_traces_without_wall_clock_skip_ordering_checks() {
        // The sim backend re-scopes time backwards at phase boundaries;
        // an out-of-order stream without the wall-clock meta stays
        // valid, exactly as before the threaded backend existed.
        crate::start(vec![]);
        crate::set_scope(500, Some(0));
        crate::emit("trainer", "compute", None, vec![]);
        crate::set_scope(100, Some(1));
        crate::emit("trainer", "compute", None, vec![]);
        let jsonl = crate::finish().to_jsonl();
        let s = validate_jsonl(&jsonl).unwrap();
        assert_eq!(s.events, 2);
    }

    #[test]
    fn rejects_event_after_counter_tail() {
        let jsonl = sample_log().to_jsonl();
        let mut lines: Vec<&str> = jsonl.lines().collect();
        // Move an event line to the end, after the counters.
        let event = lines.remove(1);
        lines.push(event);
        let shuffled: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(validate_jsonl(&shuffled).is_err());
    }
}
