//! Seeded `thread-scope-hygiene` violations. Never compiled — only lexed
//! and parsed by the golden test.

use crate::exec::run_workers;

pub struct Engine;

impl Engine {
    /// Positive: the closure touches `self` and emits a send — both must
    /// wait for the engine thread's ordered replay.
    pub fn bad_closure(&mut self, threads: usize, n: usize) {
        let _out = run_workers(threads, n, |w| {
            self.accumulate(w);
            network.send(w, w as u64);
            w
        });
    }

    /// Positive: telemetry writes and `record_*` helpers inside the
    /// closure race the replay ordering.
    pub fn bad_telemetry(&mut self, threads: usize, n: usize) {
        let _out = run_workers(threads, n, |w| {
            telemetry.add(id, lbl, 1);
            record_latency(w);
            w
        });
    }

    /// Suppressed: a documented exception stays quiet.
    pub fn tolerated(&mut self, threads: usize, n: usize) {
        let _out = run_workers(threads, n, |w| {
            // ec-lint: allow(thread-scope-hygiene)
            scratch_ring.push(w);
            w
        });
    }

    /// Clean: pure compute in the closure, sends on the replay pass.
    pub fn good_replay(&mut self, threads: usize, n: usize) {
        let out = run_workers(threads, n, |w| matmul(w));
        for (w, r) in out.iter().enumerate() {
            network.send(w, r);
            telemetry.add(id, lbl, 1);
        }
    }
}

/// Positive: `scope.spawn` closures get the same treatment.
pub fn bad_scope_spawn(sink: &mut Sink) {
    std::thread::scope(|s| {
        s.spawn(move || {
            sink.observe(id, lbl, 1.0);
        });
    });
}

/// Positive: a stage block handed to the superstep driver is a worker
/// closure like any other — the send belongs to the ordered replay.
pub fn bad_stage_block(steps: &mut SuperstepDriver, network: &SimNetwork) {
    let _out = steps.compute_superstep(Stage::new("fp:compute", "fp"), |w| {
        network.send(w, w as u64);
        w
    });
}
