package heap

// LiveMappedWords reports how many heap words are mapped and not yet
// released, across every heap in the process.
func LiveMappedWords() int64 { return liveWords.Load() }
