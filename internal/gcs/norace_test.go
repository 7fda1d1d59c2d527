//go:build !race

package gcs

const raceEnabled = false
