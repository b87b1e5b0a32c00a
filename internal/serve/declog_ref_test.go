package serve

// parseLine verifies one line with a fresh parser.
func parseLine(raw []byte) (*logRecord, error) {
	var p lineParser
	return p.parse(raw)
}

// readLog collects every verified round of a log, copying what the
// streaming scan reuses.
func readLog(path, specHash string) ([]decRound, error) {
	var rounds []decRound
	_, err := scanLog(path, specHash, func(r *decRound) error {
		rounds = append(rounds, decRound{T: r.T, A: r.A, V: append([]float64(nil), r.V...)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rounds, nil
}
