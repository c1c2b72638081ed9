//! Set-up runs on the caller and the process-wide fork-join pool only: a
//! zoo trained with more threads than the host has cores starts no thread
//! of its own.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use vehigan_core::{GridConfig, ModelZoo, Wgan, ZooTrainOptions};
use vehigan_tensor::Tensor;

#[test]
fn zoo_training_runs_on_the_caller_and_the_pool() {
    let train: Vec<f32> = (0..64 * 120)
        .map(|i| (i as f32 * 0.37).sin() * 0.2)
        .collect();
    let train = Tensor::from_vec(train, &[64, 10, 12, 1]);
    // Who ran each group: its thread and that thread's name.
    let seen = Arc::new(Mutex::new(Vec::<(ThreadId, Option<String>)>::new()));
    let mut options = ZooTrainOptions::new(8);
    let record = Arc::clone(&seen);
    options.fault_hook = Some(Arc::new(move |_: &mut Wgan| {
        let me = thread::current();
        let entry = (me.id(), me.name().map(str::to_owned));
        record.lock().unwrap().push(entry);
    }));
    let report = ModelZoo::train_grid(&GridConfig::tiny(), &train, &options).unwrap();
    assert!(report.complete);
    assert_eq!(report.zoo.len(), GridConfig::tiny().len());

    let caller = thread::current();
    let seen = seen.lock().unwrap();
    assert!(!seen.is_empty(), "the hook never ran");
    for (id, name) in seen.iter() {
        let pooled = name.as_deref().is_some_and(|n| n.starts_with("forkjoin-"));
        assert!(
            *id == caller.id() || pooled,
            "a group trained on {name:?}, neither the caller ({:?}) nor a pool helper",
            caller.name()
        );
    }
    let threads: HashSet<_> = seen.iter().map(|(id, _)| id).collect();
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        threads.len() <= cores,
        "{} threads trained on {cores} cores",
        threads.len()
    );
}
