//! Bait for `disjoint-band-writes`: pool-dispatched closures that write
//! captured shared state, directly and through a helper call.

pub type Task<'s> = Box<dyn FnOnce() + Send + 's>;

pub struct Pool;

impl Pool {
    pub fn run(&self, tasks: Vec<Task<'_>>) {
        for t in tasks {
            t();
        }
    }
}

/// Direct racy capture: every lane pushes onto the one shared log.
pub fn racy_fanout(pool: &Pool, bands: usize, shared_log: &mut Vec<usize>) {
    let mut tasks: Vec<Task<'_>> = Vec::new();
    for b in 0..bands {
        tasks.push(Box::new(move || {
            shared_log.push(b);
        }));
    }
    pool.run(tasks);
}

/// Helper that writes module-shared state; reaching it from a lane closure
/// is as racy as inlining the write.
pub fn mark_shared_done(idx: usize) {
    COMPLETED.push(idx);
}

/// Interprocedural racy capture: the closure itself only calls a helper,
/// but the helper's write set taints the whole chain.
pub fn chained_fanout(pool: &Pool, bands: usize) {
    let mut tasks: Vec<Task<'_>> = Vec::new();
    for b in 0..bands {
        tasks.push(Box::new(move || {
            mark_shared_done(b);
        }));
    }
    pool.run(tasks);
}

/// A stage block handed to the superstep driver runs on pool lanes too:
/// accumulating into the captured sum instead of returning the part races.
pub fn racy_stage_block(steps: &mut SuperstepDriver, parts: &[f32], grad_sum: &mut Vec<f32>) {
    let _out = steps.compute_superstep(Stage::new("bp:compute", "bp"), |w| {
        grad_sum[0] += parts[w];
    });
}
