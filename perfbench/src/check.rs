//! The correctness gate: every served answer is checked against the
//! labeling the client submitted, after the timed phase.

use bisched_model::{InstanceData, Rat};
use bisched_service::Response;

/// A checked response.
pub enum Verdict {
    /// `ok`, with a feasible schedule whose makespan matches the served
    /// value and is at least the served lower bound.
    Valid(Box<Answer>),
    /// The request was refused with `busy`.
    Busy,
    /// Any other non-`ok` status.
    NotOk(String),
    /// `ok`, but the answer fails a check.
    Invalid(String),
}

/// The parts of a valid answer the metrics use.
pub struct Answer {
    /// Served makespan ÷ served lower bound.
    pub ratio_lb: f64,
    /// Whether the guarantee is `optimal`.
    pub proven: bool,
    /// The parsed response.
    pub response: Response,
}

/// Checks one response line against the instance its request carried.
pub fn check(data: &InstanceData, raw: &[u8]) -> Verdict {
    let text = String::from_utf8_lossy(raw);
    let r: Response = match serde_json::from_str(text.trim_end()) {
        Ok(r) => r,
        Err(e) => return Verdict::Invalid(format!("unparseable response: {e}")),
    };
    match r.status.as_str() {
        "ok" => {}
        "busy" => return Verdict::Busy,
        _ => return Verdict::NotOk(r.error.unwrap_or(r.status)),
    }
    match served_makespan(data, &r) {
        Ok((makespan, lb)) => Verdict::Valid(Box::new(Answer {
            ratio_lb: makespan.ratio_to(&lb),
            proven: r.guarantee.as_deref() == Some("optimal"),
            response: r,
        })),
        Err(e) => Verdict::Invalid(e),
    }
}

/// Validates the assignment in the submitted labeling, recomputes its
/// makespan, and returns `(makespan, lower bound)` once both agree with
/// the served values.
fn served_makespan(data: &InstanceData, r: &Response) -> Result<(Rat, Rat), String> {
    let assignment = r.assignment.as_deref().ok_or("no assignment")?;
    if assignment.len() != data.jobs {
        return Err(format!(
            "{} assignments for {} jobs",
            assignment.len(),
            data.jobs
        ));
    }
    let m = match data.env.as_str() {
        "P" => data.machines.ok_or("P without machines")?,
        "Q" => data.speeds.as_ref().ok_or("Q without speeds")?.len(),
        _ => data.times.as_ref().ok_or("R without times")?.len(),
    };
    if let Some(j) = assignment.iter().position(|&i| i as usize >= m) {
        return Err(format!("job {j} on machine {} of {m}", assignment[j]));
    }
    if let Some(&(u, v)) = data
        .edges
        .iter()
        .find(|&&(u, v)| assignment[u as usize] == assignment[v as usize])
    {
        return Err(format!("incompatible jobs {u} and {v} share a machine"));
    }
    let mut loads = vec![0u64; m];
    for (j, &i) in assignment.iter().enumerate() {
        loads[i as usize] += match (&data.processing, &data.times) {
            (Some(p), _) => p[j],
            (None, Some(t)) => t[i as usize][j],
            (None, None) => return Err("instance without job sizes".into()),
        };
    }
    let makespan = match &data.speeds {
        Some(speeds) => loads
            .iter()
            .zip(speeds)
            .map(|(&l, &s)| Rat::new(l, s))
            .max(),
        None => loads.iter().map(|&l| Rat::integer(l)).max(),
    }
    .unwrap_or(Rat::ZERO);
    let rat = |num: Option<u64>, den: Option<u64>, what: &str| match (num, den) {
        (Some(n), Some(d)) if d > 0 => Ok(Rat::new(n, d)),
        _ => Err(format!("no {what}")),
    };
    let served = rat(r.makespan_num, r.makespan_den, "makespan")?;
    let lb = rat(r.lower_bound_num, r.lower_bound_den, "lower bound")?;
    if served != makespan {
        return Err(format!("served makespan {served}, schedule has {makespan}"));
    }
    if lb > served || lb == Rat::ZERO {
        return Err(format!("lower bound {lb} against makespan {served}"));
    }
    Ok((served, lb))
}
