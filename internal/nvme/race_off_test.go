//go:build !race

package nvme

const raceEnabled = false
