//! The `deuce` command-line tool.

use deuce_cli::CliError;

fn main() {
    let mut stdout = std::io::stdout().lock();
    match deuce_cli::main_with_args(std::env::args().skip(1), &mut stdout) {
        // A reader that closed the pipe (`deuce … | head`) wanted no
        // more output: that is not a failure.
        Err(CliError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(err) => {
            eprintln!("deuce: {err}");
            std::process::exit(1);
        }
        Ok(()) => {}
    }
}
