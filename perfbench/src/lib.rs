//! atombench's benchmark: end-to-end protocol and harness metrics on
//! four workloads, and a traced run that splits them by layer. It
//! drives the program only through its public APIs; see `README.md`.

pub mod redrive;
pub mod report;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;
