//! The `snet-snetd` daemon binary: [`ServeConfig::from_args`] over
//! [`snet_service::serve`]; exits 11 when the service cannot start
//! (bind failure, bad flags, unopenable store).

use snet_service::{install_signal_handlers, serve, ServeConfig, SERVE_FLAGS};

/// Exit code for "the daemon could not start" (mirrors
/// `snetctl`'s exit-code table).
const DAEMON_FAILED: i32 = 11;

fn usage() -> String {
    format!(
        "usage: snet-snetd {}\n\n\
         Serves POST /v1/check, /v1/adversary, /v1/search, GET /v1/jobs/{{id}},\n\
         GET /metrics, GET /healthz. --addr defaults to 127.0.0.1:7421; port 0\n\
         picks a free port (printed on startup). --store defaults to $SNET_STORE.\n\
         SIGTERM drains gracefully.\n",
        SERVE_FLAGS.replace('\n', "\n                  ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let cfg = match ServeConfig::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("snetd: {e}");
            eprint!("{}", usage());
            std::process::exit(DAEMON_FAILED);
        }
    };
    install_signal_handlers();
    if let Err(e) = serve(cfg) {
        eprintln!("snetd: {e}");
        std::process::exit(DAEMON_FAILED);
    }
}
