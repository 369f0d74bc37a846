//! The closed-loop load generator: each client thread sends its next
//! pre-serialized request only after the previous response line has
//! fully arrived, the way every caller of the daemon blocks on its reply.

use crate::daemon::Conn;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When the timed phase stops.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Stop sending once this much time has passed.
    Time(Duration),
    /// Send exactly this many requests (the traced run's fixed count).
    Requests(usize),
}

/// One completed request.
pub struct Sample {
    /// Index into the stream.
    pub index: usize,
    /// When the response line was complete, from the start of the phase.
    pub done: Duration,
    /// Send to fully received response line.
    pub latency: Duration,
    /// The raw response line.
    pub response: Vec<u8>,
}

/// What the timed phase observed.
pub struct Phase {
    /// Completed requests, in completion order per client.
    pub samples: Vec<Sample>,
    /// Requests whose connection failed (each ends its client).
    pub transport_errors: usize,
    /// First send to last response.
    pub elapsed: Duration,
    /// CPU time the client threads spent, summed.
    pub client_cpu: Duration,
}

/// Drives `conns` (one thread each) over `stream` until `limit`. When
/// `repeats` is false the stream is never wrapped: the phase ends early
/// if it runs out.
pub fn closed_loop(conns: Vec<Conn>, stream: &[Vec<u8>], repeats: bool, limit: Limit) -> Phase {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Phase {
        samples: Vec::new(),
        transport_errors: 0,
        elapsed: Duration::ZERO,
        client_cpu: Duration::ZERO,
    });
    let start = Instant::now();
    std::thread::scope(|scope| {
        for mut conn in conns {
            let (next, out) = (&next, &out);
            scope.spawn(move || {
                let cpu0 = thread_cpu();
                let mut samples = Vec::new();
                let mut failed = 0;
                loop {
                    if let Limit::Time(d) = limit {
                        if start.elapsed() >= d {
                            break;
                        }
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if matches!(limit, Limit::Requests(n) if index >= n)
                        || (!repeats && index >= stream.len())
                    {
                        break;
                    }
                    let t0 = Instant::now();
                    match conn.call(&stream[index % stream.len()]) {
                        Ok(response) => samples.push(Sample {
                            index,
                            done: start.elapsed(),
                            latency: t0.elapsed(),
                            response,
                        }),
                        Err(_) => {
                            failed += 1;
                            break;
                        }
                    }
                }
                let cpu = thread_cpu().saturating_sub(cpu0);
                let mut out = out.lock().expect("no client panics while holding the lock");
                out.samples.append(&mut samples);
                out.transport_errors += failed;
                out.client_cpu += cpu;
            });
        }
    });
    let mut phase = out.into_inner().expect("client threads joined");
    phase.elapsed = start.elapsed();
    phase
}

/// CPU time of the calling thread, from `/proc/thread-self/schedstat`
/// (zero where that file does not exist).
fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map(Duration::from_nanos)
        .unwrap_or(Duration::ZERO)
}
