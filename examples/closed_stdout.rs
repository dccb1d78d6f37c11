//! Ending quietly when the reader of stdout goes away (`… | head -1`).

/// Turn the panic `println!` raises on a closed stdout into a quiet
/// exit 0: whoever reads the output cut it short on purpose, so it is
/// not an error of this program. Every other panic keeps the default
/// report.
pub fn exit_quietly_on_closed_stdout() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default(info);
    }));
}
