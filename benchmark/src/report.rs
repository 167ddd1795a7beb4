//! What a run reports and how reports are written, read back and compared.
//!
//! `BENCHMARK.json` at the repository root is the one catalogue of workloads and
//! metrics (name, unit, direction, bound). It is compiled into the binary, so the code
//! cannot report a metric the catalogue does not name or a unit that disagrees with it.

use std::sync::OnceLock;

use wpinq_expr::Json;

use crate::stats::{self, Summary};

/// One metric definition from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug)]
pub struct Catalog {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list '{key}'"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricDef {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        lower_is_better: match text_of(item, "better")?.as_str() {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("BENCHMARK.json: better = '{other}'")),
                        },
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalog {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The catalogue compiled into this binary.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        Catalog::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    })
}

/// How often a timed run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// How many failure messages a run keeps for the human reader.
const KEPT_MESSAGES: usize = 8;

/// Counts operations and correctness checks; a failed check is a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reader.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one check; `describe` is only evaluated when it failed.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(describe());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Checks,
    /// Ungated facts for the result file: sample counts, p99, configuration.
    pub diagnostics: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// The end-to-end metrics of a timed run, and the diagnostics every timed run
    /// records with them: `ok_ops` operations succeeded in `wall_s` seconds, each
    /// taking one of `latencies_ms`; `setups` are the seconds of each full set-up.
    pub fn end_to_end(
        &mut self,
        op: &str,
        setups: Vec<f64>,
        ok_ops: u64,
        wall_s: f64,
        latencies_ms: Vec<f64>,
        peak_rss_mb: f64,
    ) {
        let summary = Summary::of(latencies_ms);
        self.note("op", Json::str(op));
        self.note("samples", Json::num(summary.n));
        self.note("lat_p99_ms", summary.p99.map_or(Json::Null, Json::f64));
        self.note("timed_wall_s", Json::f64(wall_s));
        self.note("setup_repeats", Json::num(setups.len()));
        self.metric("setup_s", stats::median(setups));
        self.metric("ops_per_s", ok_ops as f64 / wall_s);
        self.metric("lat_p50_ms", summary.p50);
        self.metric("lat_p90_ms", summary.p90);
        self.metric("peak_rss_mb", peak_rss_mb);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, name: &'static str, value: Json) {
        self.diagnostics.push((name, value));
    }
}

/// The parsed last line of a run: the driver's four keys.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Lines an [`Outcome`] up against one section of the catalogue: every metric of the
    /// section appears, in catalogue order. A per-layer metric the workload did not
    /// produce reads 0 — that layer does nothing on that workload — while a missing
    /// end-to-end metric, an unknown name or a non-finite value is a bug in the harness.
    pub fn from_outcome(outcome: &Outcome, traced: bool) -> Result<RunResult, String> {
        let section = if traced {
            &catalog().per_layer
        } else {
            &catalog().end_to_end
        };
        for (name, value) in &outcome.metrics {
            if !section.iter().any(|def| def.name == *name) {
                return Err(format!("metric '{name}' is not in BENCHMARK.json"));
            }
            if !value.is_finite() {
                return Err(format!("metric '{name}' is not finite"));
            }
        }
        let mut metrics = Vec::with_capacity(section.len());
        for def in section {
            let measured = outcome.metrics.iter().find(|(name, _)| *name == def.name);
            let value = match measured {
                Some((_, value)) => *value,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric '{}' was not measured", def.name)),
            };
            metrics.push((def.name.clone(), value, def.unit.clone()));
        }
        Ok(RunResult {
            correct: outcome.checks.failed == 0,
            attempted: outcome.checks.attempted.max(1),
            failed: outcome.checks.failed,
            metrics,
        })
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num(self.attempted)),
            ("failed".into(), Json::num(self.failed)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::Obj(vec![
                                    ("value".into(), Json::f64(*value)),
                                    ("unit".into(), Json::str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<RunResult, String> {
        let Some(Json::Obj(members)) = json.get("metrics") else {
            return Err("result without 'metrics'".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric '{name}' without value and unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            correct: json
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result without 'correct'")?,
            attempted: json
                .get("attempted")
                .and_then(Json::as_u64)
                .ok_or("result without 'attempted'")?,
            failed: json
                .get("failed")
                .and_then(Json::as_u64)
                .ok_or("result without 'failed'")?,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, value, _)| *value)
    }
}

/// The share of `base` by which `new` is worse, in the metric's own direction
/// (negative when `new` is better).
pub fn worse_by(def: &MetricDef, base: f64, new: f64) -> f64 {
    if def.lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    }
}

/// One end-to-end metric of one workload on which two suite files disagree by more than
/// the metric's bound.
#[derive(Debug, PartialEq)]
pub struct Disagreement {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    pub share: f64,
    pub bound: f64,
}

/// Compares two suite files of the same commit (A/A): whichever direction is worse
/// must stay within the bound, and both runs must have passed their checks.
pub fn compare(first: &Json, second: &Json) -> Result<Vec<Disagreement>, String> {
    let mut out = Vec::new();
    for workload in &catalog().workloads {
        let result = |file: &Json| -> Result<RunResult, String> {
            let entry = file
                .get("results")
                .and_then(|r| r.get(workload))
                .ok_or_else(|| format!("no result for workload '{workload}'"))?;
            let result = RunResult::from_json(entry)?;
            if !result.correct {
                return Err(format!("workload '{workload}' failed its checks"));
            }
            Ok(result)
        };
        let (a, b) = (result(first)?, result(second)?);
        for def in &catalog().end_to_end {
            let (Some(x), Some(y)) = (a.value(&def.name), b.value(&def.name)) else {
                return Err(format!("'{workload}' lacks metric '{}'", def.name));
            };
            let share = worse_by(def, x, y).max(worse_by(def, y, x));
            let bound = def.bound.unwrap_or(0.0);
            if share > bound {
                out.push(Disagreement {
                    workload: workload.clone(),
                    metric: def.name.clone(),
                    first: x,
                    second: y,
                    share,
                    bound,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalogue_meets_the_contract_limits() {
        let c = catalog();
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(matches!(setup, Some(m) if m.unit == "s" && m.lower_is_better));
        let mut names: Vec<&str> = c
            .workloads
            .iter()
            .chain(c.end_to_end.iter().map(|m| &m.name))
            .chain(c.per_layer.iter().map(|m| &m.name))
            .map(String::as_str)
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &c.end_to_end {
            assert!(
                matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25),
                "{}",
                m.name
            );
        }
    }

    fn outcome_with_every_end_to_end_metric() -> Outcome {
        let mut outcome = Outcome::default();
        outcome.end_to_end("test", vec![0.5], 10, 2.0, vec![1.0; 100], 12.75);
        outcome.checks.check(true, String::new);
        outcome
    }

    #[test]
    fn a_result_survives_write_then_parse() {
        let outcome = outcome_with_every_end_to_end_metric();
        let result = RunResult::from_outcome(&outcome, false).unwrap();
        let line = result.to_json().to_compact();
        assert!(!line.contains('\n'));
        let parsed = RunResult::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, result);
        let Json::Obj(members) = Json::parse(&line).unwrap() else {
            panic!("a result is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn unknown_missing_and_non_finite_metrics_are_refused() {
        let mut unknown = outcome_with_every_end_to_end_metric();
        unknown.metric("no.such.metric", 1.0);
        assert!(RunResult::from_outcome(&unknown, false).is_err());

        let mut missing = outcome_with_every_end_to_end_metric();
        missing.metrics.pop();
        assert!(RunResult::from_outcome(&missing, false).is_err());

        let mut nan = outcome_with_every_end_to_end_metric();
        nan.metrics[0].1 = f64::NAN;
        assert!(RunResult::from_outcome(&nan, false).is_err());

        // A traced run reports every per-layer metric; layers that did nothing read 0.
        let traced = RunResult::from_outcome(&Outcome::default(), true).unwrap();
        assert_eq!(traced.metrics.len(), catalog().per_layer.len());
        assert!(traced.metrics.iter().all(|(_, value, _)| *value == 0.0));
    }

    #[test]
    fn worse_by_follows_the_direction_of_the_metric() {
        let lower = MetricDef {
            name: "lat".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.1),
        };
        let higher = MetricDef {
            lower_is_better: false,
            ..lower.clone()
        };
        assert!((worse_by(&lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!(worse_by(&lower, 100.0, 90.0) < 0.0);
        assert!((worse_by(&higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worse_by(&higher, 100.0, 110.0) < 0.0);
    }

    fn suite_file(scale: impl Fn(&MetricDef) -> f64) -> Json {
        let results = catalog()
            .workloads
            .iter()
            .map(|w| {
                let result = RunResult {
                    correct: true,
                    attempted: 10,
                    failed: 0,
                    metrics: catalog()
                        .end_to_end
                        .iter()
                        .map(|def| (def.name.clone(), 100.0 * scale(def), def.unit.clone()))
                        .collect(),
                };
                (w.clone(), result.to_json())
            })
            .collect();
        Json::Obj(vec![("results".into(), Json::Obj(results))])
    }

    #[test]
    fn comparison_applies_each_metrics_own_bound_in_both_directions() {
        let base = suite_file(|_| 1.0);
        assert_eq!(compare(&base, &base).unwrap(), vec![]);

        // Every metric moved by 80% of its bound, in its bad direction: still agreeing.
        let near = suite_file(|def| {
            let step = 0.8 * def.bound.unwrap();
            if def.lower_is_better {
                1.0 + step
            } else {
                1.0 - step
            }
        });
        assert_eq!(compare(&base, &near).unwrap(), vec![]);
        assert_eq!(compare(&near, &base).unwrap(), vec![]);

        // Past the bound, every metric of every workload is reported, whichever file is
        // the worse one.
        let far = suite_file(|def| {
            let step = 1.5 * def.bound.unwrap();
            if def.lower_is_better {
                1.0 + step
            } else {
                1.0 - step
            }
        });
        let expected = catalog().workloads.len() * catalog().end_to_end.len();
        assert_eq!(compare(&base, &far).unwrap().len(), expected);
        assert_eq!(compare(&far, &base).unwrap().len(), expected);
    }
}
