//! The `perflow-serve` daemon binary: parse flags, start the server,
//! block until a `POST /shutdown` drains it.

use serve::{Server, ServerConfig};

const USAGE: &str = "perflow-serve [options]

Options:
  --addr HOST:PORT            bind address (default 127.0.0.1:7070, port 0 = ephemeral)
  --workers N                 executor threads (default 4)
  --queue-cap N               bounded job-queue capacity (default 64)
  --tenant-quota N            max active jobs per tenant (default 8)
  --run-cache-capacity N      simulated-run cache entry cap (default 16)
  --report-cache-capacity N   rendered-report cache entry cap (default 256)
  --span-cap N                span-storage cap of the trace store (default 65536)
  --api-key KEY               accepted API key (repeatable; none = open server)
  --admin-key KEY             require this X-Admin-Key on POST /shutdown
  --help                      print this help
";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7070".into(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?.clone(),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?
            }
            "--queue-cap" => {
                cfg.queue_capacity = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap needs an integer".to_string())?
            }
            "--tenant-quota" => {
                cfg.tenant_quota = value("--tenant-quota")?
                    .parse()
                    .map_err(|_| "--tenant-quota needs an integer".to_string())?
            }
            "--run-cache-capacity" => {
                cfg.run_cache_capacity = value("--run-cache-capacity")?
                    .parse()
                    .map_err(|_| "--run-cache-capacity needs an integer".to_string())?
            }
            "--report-cache-capacity" => {
                cfg.report_cache_capacity = value("--report-cache-capacity")?
                    .parse()
                    .map_err(|_| "--report-cache-capacity needs an integer".to_string())?
            }
            "--span-cap" => {
                cfg.span_cap = value("--span-cap")?
                    .parse()
                    .map_err(|_| "--span-cap needs an integer".to_string())?
            }
            "--api-key" => cfg.api_keys.push(value("--api-key")?.clone()),
            "--admin-key" => cfg.admin_key = Some(value("--admin-key")?.clone()),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workers = cfg.workers;
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "perflow-serve listening on {} ({} workers)",
        server.local_addr(),
        workers
    );
    let stats = server.wait();
    println!(
        "perflow-serve drained: {} completed ({} from report cache), {} failed",
        stats.completed, stats.report_cache_hits, stats.failed
    );
}
