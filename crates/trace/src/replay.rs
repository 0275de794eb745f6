//! A compatibility name for `benchmark/`, which is frozen: its oracle
//! replay still writes `ReplayLog::from(log)`.
//!
//! Nothing else may use this module: read a trace with
//! [`TraceLog::parse`] and replay the [`TraceLog`] itself. The tests
//! below pin the alias for `benchmark/`. The change
//! that next unfreezes `benchmark/` (ROADMAP.md, item 14) deletes it.

use crate::TraceLog;

/// [`TraceLog`] under the name `benchmark/` uses. Exists only for
/// `benchmark/`; deleted with this module.
pub type ReplayLog = TraceLog;

/// A clone, for `benchmark/`'s `ReplayLog::from(log)`. Exists only for
/// `benchmark/`; deleted with this module.
impl From<&TraceLog> for TraceLog {
    fn from(log: &TraceLog) -> TraceLog {
        log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field;
    use het_json::Json;

    fn sample_log() -> TraceLog {
        crate::start(vec![("seed".to_string(), Json::UInt(9))]);
        crate::set_scope(5, Some(0));
        crate::emit("trainer", "read", Some(3), vec![field("keys", 4u64)]);
        crate::set_scope(8, Some(1));
        crate::emit(
            "client",
            "read_window",
            None,
            vec![field("max_lag", 2u64), field("note", "x")],
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
        assert_eq!(from_mem, log);
        assert_eq!(from_mem, from_text);
        assert_eq!(from_text.counter("cache", "hits"), 5);
        assert_eq!(from_text.counter_at("cache", "hits", Some(1)), 2);
        assert_eq!(from_text.meta, vec![("seed".to_string(), Json::UInt(9))]);
    }

    #[test]
    fn cursor_walks_in_order_and_seeks() {
        let log = ReplayLog::from(&sample_log());
        let mut c = log.events.iter();
        assert_eq!(c.len(), 2);
        let first = c.next().unwrap();
        assert!(first.is("trainer", "read"));
        assert_eq!(first.dur_ns, Some(3));
        assert_eq!(first.field_u64("keys"), Some(4));
        let hit = c.find(|e| e.is("client", "read_window")).unwrap();
        assert_eq!(hit.worker, Some(1));
        assert_eq!(hit.t_ns, 8);
        assert_eq!(hit.field_u64("max_lag"), Some(2));
        assert!(hit.field_u64("note").is_none(), "string field is not u64");
        assert_eq!(c.len(), 0);
        assert!(c.next().is_none());
    }
}
