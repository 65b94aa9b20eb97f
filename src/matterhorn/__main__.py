from .cli import main
if __name__ == "__main__":  # a plain import runs nothing
    raise SystemExit(main())
