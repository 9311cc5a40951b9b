//! `reproduce <name|all> [key=value…]` — regenerates a table or figure of
//! the paper (see `ec_bench::experiments::EXPERIMENTS`). Exits 2, naming
//! the accepted keys, on anything it does not understand. `reproduce isa`
//! prints the instruction-set tier the kernels run at on this host —
//! provenance for every timed column, recorded by `scripts/reproduce.sh`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["isa"] {
        println!("{}", ec_tensor::isa::Tier::best());
        return;
    }
    if let Err(usage) = ec_bench::reproduce(&args, &mut std::io::stdout().lock()) {
        eprintln!("{usage}");
        std::process::exit(2);
    }
}
