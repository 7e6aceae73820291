//! The `scflow-serve` binary: JSON-lines simulation service over stdio
//! (default) or TCP.
//!
//! ```text
//! scflow-serve              # serve stdin/stdout (or SCFLOW_SERVE_ADDR)
//! scflow-serve --stdio      # force stdio even when SCFLOW_SERVE_ADDR is set
//! scflow-serve --addr HOST:PORT
//! ```
//!
//! Knobs (see `ServeOptions::from_env`): `SCFLOW_SERVE_ADDR`,
//! `SCFLOW_SERVE_THREADS`, `SCFLOW_CACHE_CAP`; an unparsable value exits
//! 2. Diagnostics go to stderr; stdout carries only protocol replies.

use scflow::prelude::ServeOptions;
use scflow_serve::Server;

fn main() {
    let mut opts = ServeOptions::from_env().unwrap_or_else(|e| {
        eprintln!("scflow-serve: {e}");
        std::process::exit(2);
    });
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => opts.addr = None,
            "--addr" => match args.next() {
                Some(a) => opts.addr = Some(a),
                None => {
                    eprintln!("scflow-serve: --addr needs HOST:PORT");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: scflow-serve [--stdio | --addr HOST:PORT]");
                return;
            }
            other => {
                eprintln!("scflow-serve: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let server = Server::new(&opts);
    let result = match opts.addr.as_deref() {
        Some(addr) => {
            eprintln!(
                "scflow-serve: listening on {addr} ({} workers, cache cap {})",
                opts.threads, opts.cache_cap
            );
            server.serve_tcp(addr)
        }
        None => server.serve_stdio(),
    };
    if let Err(e) = result {
        eprintln!("scflow-serve: transport error: {e}");
        std::process::exit(1);
    }
}
