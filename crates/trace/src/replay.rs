//! Replay API over finished traces.
//!
//! [`crate::TraceLog`] carries `&'static str` component/event names, so
//! a trace read back from its JSONL form cannot be reconstructed as a
//! `TraceLog`. This module provides the owned-string mirror the
//! `het-oracle` replay checker consumes: [`ReplayLog`] parses a
//! `het-trace-v1` document (or converts losslessly from an in-memory
//! `TraceLog`) and [`TraceCursor`] walks its event stream in emission
//! order.

use crate::TraceLog;
use het_json::Json;

/// One replayed trace event (owned strings).
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayEvent {
    /// Simulated timestamp, nanoseconds since simulation start.
    pub t_ns: u64,
    /// Worker the event is attributed to (`None` = global scope).
    pub worker: Option<u64>,
    /// Emitting component.
    pub comp: String,
    /// Event name within the component.
    pub name: String,
    /// Span duration; `None` marks an instant event.
    pub dur_ns: Option<u64>,
    /// Structured payload fields (insertion order preserved).
    pub fields: Vec<(String, Json)>,
}

impl ReplayEvent {
    /// True when the event is `comp/name`.
    pub fn is(&self, comp: &str, name: &str) -> bool {
        self.comp == comp && self.name == name
    }

    /// Looks up a payload field by name.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A payload field as an unsigned integer, if present and unsigned.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.field(name)?.as_u64().ok()
    }
}

/// Final value of one replayed counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayCounter {
    /// Owning component.
    pub comp: String,
    /// Counter name.
    pub name: String,
    /// Optional sub-index (worker or shard); `None` aggregates.
    pub idx: Option<u64>,
    /// Accumulated value.
    pub value: u64,
}

/// A finished trace in replayable (owned) form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayLog {
    /// Run metadata from the meta line (minus `type`/`schema`).
    pub meta: Vec<(String, Json)>,
    /// All events, in emission order.
    pub events: Vec<ReplayEvent>,
    /// Final counter values, in the document's sorted order.
    pub counters: Vec<ReplayCounter>,
}

impl ReplayLog {
    /// Parses a `het-trace-v1` JSONL document, checking it against the
    /// schema ([`crate::schema::validate_jsonl`]'s rules) in the same
    /// pass, so a successful parse implies schema validity.
    pub fn parse(jsonl: &str) -> Result<ReplayLog, String> {
        crate::schema::read_jsonl(jsonl).map(|(_, log)| log)
    }

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

    /// A cursor at the start of the event stream.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            events: &self.events,
            pos: 0,
        }
    }
}

impl From<&TraceLog> for ReplayLog {
    fn from(log: &TraceLog) -> ReplayLog {
        ReplayLog {
            meta: log.meta.clone(),
            events: log
                .events
                .iter()
                .map(|e| ReplayEvent {
                    t_ns: e.t_ns,
                    worker: e.worker,
                    comp: e.comp.to_string(),
                    name: e.name.to_string(),
                    dur_ns: e.dur_ns,
                    fields: e
                        .fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                })
                .collect(),
            counters: log
                .counters
                .iter()
                .map(|c| ReplayCounter {
                    comp: c.comp.to_string(),
                    name: c.name.to_string(),
                    idx: c.idx,
                    value: c.value,
                })
                .collect(),
        }
    }
}

/// A forward-only cursor over a [`ReplayLog`]'s event stream.
#[derive(Clone, Copy)]
pub struct TraceCursor<'a> {
    events: &'a [ReplayEvent],
    pos: usize,
}

impl<'a> TraceCursor<'a> {
    /// The next event without advancing.
    pub fn peek(&self) -> Option<&'a ReplayEvent> {
        self.events.get(self.pos)
    }

    /// Current position in the stream (events consumed so far).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.pos
    }

    /// Advances to the next event matching `pred`, consuming (and
    /// skipping) everything before it.
    pub fn seek(&mut self, mut pred: impl FnMut(&ReplayEvent) -> bool) -> Option<&'a ReplayEvent> {
        while let Some(e) = self.events.get(self.pos) {
            self.pos += 1;
            if pred(e) {
                return Some(e);
            }
        }
        None
    }
}

impl<'a> Iterator for TraceCursor<'a> {
    type Item = &'a ReplayEvent;

    fn next(&mut self) -> Option<&'a ReplayEvent> {
        let e = self.events.get(self.pos)?;
        self.pos += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample_log() -> TraceLog {
        crate::start(vec![("seed".to_string(), Json::UInt(9))]);
        crate::set_scope(5, Some(0));
        crate::emit("trainer", "read", Some(3), vec![("keys", Value::UInt(4))]);
        crate::set_scope(8, Some(1));
        crate::emit(
            "client",
            "read_window",
            None,
            vec![
                ("max_lag", Value::UInt(2)),
                ("note", Value::Str("x".into())),
            ],
        );
        crate::counter_add_at("cache", "hits", Some(0), 3);
        crate::counter_add_at("cache", "hits", Some(1), 2);
        crate::finish()
    }

    #[test]
    fn jsonl_round_trip_matches_in_memory_conversion() {
        let log = sample_log();
        let from_mem = ReplayLog::from(&log);
        let from_text = ReplayLog::parse(&log.to_jsonl()).unwrap();
        assert_eq!(from_mem, from_text);
        assert_eq!(from_text.counter("cache", "hits"), 5);
        assert_eq!(from_text.counter_at("cache", "hits", Some(1)), 2);
        assert_eq!(from_text.meta, vec![("seed".to_string(), Json::UInt(9))]);
    }

    #[test]
    fn cursor_walks_in_order_and_seeks() {
        let log = ReplayLog::from(&sample_log());
        let mut c = log.cursor();
        assert_eq!(c.remaining(), 2);
        let first = c.next().unwrap();
        assert!(first.is("trainer", "read"));
        assert_eq!(first.dur_ns, Some(3));
        assert_eq!(first.field_u64("keys"), Some(4));
        let hit = c.seek(|e| e.is("client", "read_window")).unwrap();
        assert_eq!(hit.worker, Some(1));
        assert_eq!(hit.t_ns, 8);
        assert_eq!(hit.field_u64("max_lag"), Some(2));
        assert!(hit.field_u64("note").is_none(), "string field is not u64");
        assert_eq!(c.remaining(), 0);
        assert!(c.next().is_none());
    }

    #[test]
    fn parse_rejects_invalid_documents() {
        assert!(ReplayLog::parse("").is_err());
        assert!(ReplayLog::parse("{\"type\":\"event\"}\n").is_err());
    }
}
