//! Spans recorded from the benchmark's own code, around an in-process
//! replay of each request through the same public calls the daemon's
//! request path makes. Nothing inside the program is instrumented.

use bisched_core::{SolveReport, SolverConfig};
use bisched_model::canonicalize;
use bisched_service::{frame, AttemptData, LruCache, Request, Response, ServeOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `canonical.canonicalize`.
    pub name: &'static str,
    /// The request the span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the start from the recorder's origin.
    pub start: Duration,
    /// Offset of the end from the recorder's origin.
    pub end: Duration,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder. When off, [`Recorder::span`] only runs its
/// closure, which is what the overhead comparison measures against.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans (`on`) or ignores them.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto), one
    /// complete event per span, one track per request.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.request,
                    s.start.as_secs_f64() * 1e6,
                    s.duration().as_secs_f64() * 1e6
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }
}

/// Request ids at or above this mark the set-up (warm) pass.
pub const WARM_ID_BASE: u64 = 1 << 40;

/// What the replay learned about one request, beyond its spans.
pub struct ReplayOutcome {
    /// Canonical certificate length, bytes.
    pub cert_bytes: usize,
    /// The solve report, when the replay's cache missed.
    pub solved: Option<Arc<SolveReport>>,
}

/// The daemon's request path, replayed in-process: decode, instance
/// conversion, canonicalization, cache lookup, solve on a miss, cache
/// insert, translation back to the request's labeling, and response
/// encoding, under one `request` span. The binary codec and the
/// schedule audit, which the default JSON path does not run, go under a
/// separate `audit` span.
pub struct Replay {
    /// The span recorder.
    pub rec: Recorder,
    cache: LruCache,
    base: SolverConfig,
}

impl Replay {
    /// A replay with the daemon's default cache size and solver
    /// configuration.
    pub fn new(record: bool) -> Replay {
        let opts = ServeOptions::default();
        Replay {
            rec: Recorder::new(record),
            cache: LruCache::new(opts.cache_cap),
            base: opts.base_config,
        }
    }

    /// Replays one request line (`id` tags its spans).
    pub fn serve(&mut self, id: u64, line: &[u8]) -> Result<ReplayOutcome, String> {
        let Replay { rec, cache, base } = self;
        let text = std::str::from_utf8(line)
            .map_err(|e| e.to_string())?
            .trim_end();
        let request_frame = {
            let mut out = Vec::new();
            frame::encode_value(
                &serde_json::parse_value(text).map_err(|e| e.to_string())?,
                &mut out,
            );
            out
        };
        let (response, schedule, canonical_instance, outcome) = rec.span("request", id, |rec| {
            let req: Request = rec
                .span("protocol.decode", id, |_| serde_json::from_str(text))
                .map_err(|e| e.to_string())?;
            let config = req.solver_config(base)?;
            let data = req.instance.clone().ok_or("solve without instance")?;
            let inst = rec
                .span("io.into_instance", id, |_| data.into_instance())
                .map_err(|e| e.to_string())?;
            let canonical = rec.span("canonical.canonicalize", id, |_| canonicalize(&inst));
            let key = canonical.fingerprint;
            let hit = rec.span("cache.lookup", id, |_| {
                cache.get(key, &canonical.certificate)
            });
            let cached = hit.is_some();
            let (report, solved) = match hit {
                Some(report) => (report, None),
                None => {
                    let report = rec.span("solver.solve", id, |_| {
                        config.build().and_then(|s| s.solve(&canonical.instance))
                    });
                    let report = Arc::new(report.map_err(|e| e.to_string())?);
                    rec.span("cache.insert", id, |_| {
                        cache.insert_routed(
                            key,
                            key,
                            canonical.certificate.clone(),
                            Arc::clone(&report),
                        )
                    });
                    (Arc::clone(&report), Some(report))
                }
            };
            let schedule = rec.span("canonical.translate", id, |_| {
                canonical.schedule_to_original(&report.schedule)
            });
            let response = rec.span("protocol.encode", id, |_| {
                let mut r = Response::ok(req.id);
                r.method = Some(report.method.name().to_string());
                r.guarantee = Some(report.guarantee.to_string());
                r.makespan_num = Some(report.makespan.num());
                r.makespan_den = Some(report.makespan.den());
                r.lower_bound_num = Some(report.lower_bound.num());
                r.lower_bound_den = Some(report.lower_bound.den());
                r.assignment = Some(schedule.assignment().to_vec());
                r.cached = Some(cached);
                if !cached {
                    r.attempts = Some(report.attempts.iter().map(AttemptData::from_run).collect());
                }
                let text = serde_json::to_string(&r).map_err(|e| e.to_string());
                text.map(|_| r)
            })?;
            let outcome = ReplayOutcome {
                cert_bytes: canonical.certificate.len(),
                solved,
            };
            Ok::<_, String>((
                response,
                report.schedule.clone(),
                canonical.instance,
                outcome,
            ))
        })?;
        rec.span("audit", id, |rec| {
            rec.span("frame.decode", id, |_| {
                frame::decode_value(&request_frame)
                    .and_then(|v| serde_json::from_value::<Request>(v).map_err(|e| e.to_string()))
            })?;
            rec.span("frame.encode", id, |_| {
                let mut out = Vec::new();
                frame::encode_value(
                    &serde_json::to_value(&response).map_err(|e| e.to_string())?,
                    &mut out,
                );
                Ok::<_, String>(out)
            })?;
            rec.span("schedule.validate", id, |_| {
                schedule.validate(&canonical_instance)
            })
            .map_err(|e| format!("replayed schedule invalid: {e}"))
        })?;
        Ok(outcome)
    }
}
