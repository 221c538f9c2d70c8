package explore

// Generation counts for the external tests in this directory.

// GenerationCounts returns fg's History checks in Next's loop and the
// mutations its refusal memos answered instead.
func GenerationCounts(fg *FitnessGuided) (admissions, answers int) {
	return fg.admissions, fg.answers
}

const RaceEnabled = raceEnabled
