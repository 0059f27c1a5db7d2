//! Order-preserving fan-out of independent jobs over worker threads.

use std::sync::Mutex;

/// Runs a batch of jobs across `threads` worker threads (`None` means one
/// per available core), capped at the job count. Per-job results are
/// deterministic and the output order matches the input order, so the
/// result is identical to a serial loop.
pub fn run_parallel_with<J, R, F>(jobs: Vec<J>, threads: Option<usize>, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let n = jobs.len();
    let threads = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
        .clamp(1, n.max(1));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let Some((i, job)) = queue.lock().expect("queue lock").next() else {
                    break;
                };
                let r = f(&job);
                results.lock().expect("results lock")[i] = Some(r);
            });
        }
    });
    let results = results.into_inner().expect("results lock");
    results
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}
