use perfbench::{cli, report};

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", cli::USAGE);
            return;
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    match report::run(&args) {
        Ok(json) => println!("{json}"),
        Err(f) => {
            eprintln!("perfbench: check failed: {}: {}", f.check, f.detail);
            std::process::exit(1);
        }
    }
}
