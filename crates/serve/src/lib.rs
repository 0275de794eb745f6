//! Online inference serving over the cached embedding store.
//!
//! The paper trains huge embedding models behind a clock-bounded cache
//! (`CheckValid`, §3.2); this crate points the same machinery at the
//! *serving* side of the north star — "serving heavy traffic from
//! millions of users" — as a deterministic simulation on `het-simnet`
//! time:
//!
//! * an **open-loop request generator** — Poisson-like arrivals with
//!   Zipf key popularity, hot-set drift, and a flash-crowd knob
//!   ([`workload`]);
//! * **N inference replicas**, each a trained `het-models` forward pass
//!   behind a read-mostly embedding cache (any of the LRU/LFU/LightLFU
//!   policies) doing staleness-bounded reads against the live PS
//!   ([`sim`]); the fleet is a `het_runtime::Process`, so it can be
//!   **co-scheduled with a real trainer** on one cluster runtime and
//!   one PS fabric, exposing the freshness/latency trade-off of
//!   serving *while training* ([`colocate`]). Each job registers its
//!   own processes there: the trainer its prefetcher, the fleet its
//!   supervisor and autoscaler — the same ones it registers alone;
//! * **micro-batching** per replica (max batch size + max queue delay)
//!   with full queueing/latency accounting into a [`ServeReport`]
//!   (throughput, p50/p95/p99 from a deterministic histogram,
//!   per-replica cache stats);
//! * **fault integration**: replica crashes cold-restart the cache,
//!   PS-shard failover degrades gracefully to stale serving (§3.3), and
//!   everything lands in the `serve` trace component;
//! * **self-healing elasticity** ([`supervise`]): a heartbeat-driven
//!   supervisor *detects* crashes (no fault-plan peeking) and drives
//!   respawns with sketch-warmed caches, observes PS-shard outages
//!   (only a co-scheduled trainer restores a shard), an autoscaler
//!   resizes the admitted replica pool under hysteresis, and the
//!   supervisor live-splits a hot PS shard while traffic continues —
//!   each switched on by one [`ServeConfig`] field (`supervised`,
//!   `autoscale`, `reshard_at`), with every period and threshold a
//!   constant of [`supervise`], all deterministic;
//! * a **chaos campaign harness** ([`chaos`]) that runs trainer +
//!   supervised, autoscaled fleet through [`run_colocated`] under a
//!   compound fault scenario and asserts SLO/RTO outcomes;
//! * a **threaded backend** ([`thread`]): the same replica machinery on
//!   real OS threads behind `--backend threads:<n>` — one thread per
//!   replica over the shared PS fabric, reporting the same
//!   [`ServeReport`] with wall-clock throughput/latency instead of
//!   simulated time (the simulator stays the correctness oracle).
//!
//! Same seed ⇒ byte-identical report JSON and byte-identical trace
//! (on the sim backend; wall-clock measurements are exempt by design).

#![warn(missing_docs)]

pub mod chaos;
pub mod colocate;
pub mod config;
pub mod report;
pub mod sim;
pub mod supervise;
pub mod thread;
pub mod workload;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use colocate::{run_colocated, ColocatedReport};
pub use config::ServeConfig;
pub use report::{ReplicaReport, ServeReport};
pub use sim::ServeSim;
pub use thread::{run_threaded_colocated, run_threaded_serve};
pub use workload::{generate_requests, pretrain, Request};
