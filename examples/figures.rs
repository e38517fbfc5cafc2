//! Regenerate the paper's Figs. 3–11 from the machine model
//! (`apps::figures`): all nine in paper order, or only the ones named.
//! Fig. 2 is `purec examples/schedules/fig02_skew.c --tile 32
//! --dump-schedule`.
//!
//! ```sh
//! cargo run --release --example figures -- [--json] [fig3 … fig11]
//! ```

use pure_c::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--json")
        .collect();
    let figs = all_figures();
    if let Some(unknown) = wanted.iter().find(|w| figs.iter().all(|f| f.id != **w)) {
        eprintln!("figures: unknown figure '{unknown}' (fig3 … fig11, --json)");
        std::process::exit(2);
    }
    for fig in &figs {
        if !wanted.is_empty() && !wanted.contains(&fig.id.as_str()) {
            continue;
        }
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(fig).expect("serializable")
            );
        } else {
            println!("{}", fig.render());
        }
    }
}
