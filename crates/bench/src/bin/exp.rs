//! The experiment runner: `exp <name>…` runs the named experiments in the
//! order given and prints their markdown tables to stdout; `exp all` runs
//! every one. `REX_QUICK=1` selects the reduced sweep. With no argument or
//! an unknown name it lists the names and exits 2.

use rex_bench::experiments::ALL;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &String| ALL.iter().find(|(n, _)| n == name).map(|&(_, run)| run);
    let runs: Option<Vec<fn()>> = match args.as_slice() {
        [] => None,
        [all] if all == "all" => Some(ALL.iter().map(|&(_, run)| run).collect()),
        names => names.iter().map(find).collect(),
    };
    let Some(runs) = runs else {
        let names: Vec<&str> = ALL.iter().map(|&(name, _)| name).collect();
        eprintln!("usage: exp <name>... | exp all\n  {}", names.join("\n  "));
        std::process::exit(2);
    };
    runs.into_iter().for_each(|run| run());
}
