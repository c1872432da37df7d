fn main() -> std::process::ExitCode {
    csbench::cli::main()
}
