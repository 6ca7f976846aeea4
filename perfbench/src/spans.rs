//! Benchmark-side spans: wall time of the calls the benchmark makes into each
//! crate, recorded only in a traced run.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Named duration samples in seconds. A disabled recorder times nothing.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            samples: BTreeMap::new(),
        }
    }

    /// Run `f`, recording its wall time under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.record(name, t0.elapsed().as_secs_f64());
        r
    }

    /// Record a duration (or any per-event value) measured elsewhere.
    pub fn record(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Fold another recorder's samples into this one.
    pub fn merge(&mut self, other: Spans) {
        for (name, mut v) in other.samples {
            self.samples.entry(name).or_default().append(&mut v);
        }
    }

    /// Median of the samples recorded under `name`.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| stats::median(v))
    }
}
