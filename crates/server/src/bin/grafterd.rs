//! grafterd — the long-running Grafter traversal service.
//!
//! ```text
//! grafterd [--addr HOST:PORT] [--workers N] [--cache N]
//! ```
//!
//! `--workers N` (default: the machine's available parallelism) sets how
//! many executor threads run traversals; they are spawned at start-up and
//! shared by every connection, and one batch fans out to at most `N` of
//! them. `--cache N` (default 32) bounds the resident compiled engines.
//!
//! Binds (port 0 picks an ephemeral port), prints
//! `grafterd listening on <addr>` on stdout (scripts and CI parse this
//! line to discover the resolved port), then serves until SIGTERM or
//! SIGINT. On a signal it stops accepting, drains in-flight requests and
//! exits 0.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use grafter_server::{Daemon, DaemonOptions};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Async-signal-safe: one atomic store; the serve loop polls it.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGTERM (15) and SIGINT (2) via the libc
/// `signal` symbol — the one C binding this crate needs, declared here
/// rather than pulling in a dependency.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

fn usage() -> ! {
    eprintln!("usage: grafterd [--addr HOST:PORT] [--workers N] [--cache N]");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7421".to_string();
    let mut opts = DaemonOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = value(),
            "--workers" => match value().parse() {
                Ok(n) if n > 0 => opts.workers = n,
                _ => usage(),
            },
            "--cache" => match value().parse() {
                Ok(n) if n > 0 => opts.cache_capacity = n,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    install_signal_handlers();

    let daemon = match Daemon::bind(&addr, opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("grafterd: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = daemon.local_addr().expect("bound socket has an address");
    // CI and scripts grep this exact line for the resolved port.
    println!("grafterd listening on {bound}");

    match daemon.serve(&SHUTDOWN) {
        Ok(()) => {
            println!("grafterd drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("grafterd: acceptor failed: {e}");
            ExitCode::FAILURE
        }
    }
}
