package lint

// DefaultCheckers returns the full project-invariant suite for a module
// (in practice, "ldplayer"). Order is the reporting order for ldp-vet
// -list; diagnostics themselves sort by file position.
func DefaultCheckers(modulePath string) []Checker {
	return []Checker{
		SimClock{ModulePath: modulePath},
		ErrCheck{ModulePath: modulePath},
		MutexBlock{ModulePath: modulePath},
		ShardConfined{ModulePath: modulePath},
	}
}
