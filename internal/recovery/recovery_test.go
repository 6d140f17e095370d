package recovery

import (
	"testing"
	"time"
)

func TestDeadlineIsQuarterMTBF(t *testing.T) {
	if Deadline(40*time.Minute) != 10*time.Minute {
		t.Fatal("deadline is not MTBF/4")
	}
}

func TestQueueDedupAndDrain(t *testing.T) {
	q := NewQueue([]string{"a", "b", "a", "c"})
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after dedup", q.Len())
	}
	if !q.MarkRepaired("b") {
		t.Fatal("MarkRepaired(b) = false")
	}
	if q.MarkRepaired("b") {
		t.Fatal("double MarkRepaired(b) = true")
	}
	var drained []string
	for {
		k := q.Next()
		if k == "" {
			break
		}
		q.MarkRepaired(k)
		drained = append(drained, k)
	}
	if len(drained) != 2 || drained[0] != "a" || drained[1] != "c" {
		t.Fatalf("drained = %v", drained)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

func TestQueueOnAccessRepairSkippedByDrain(t *testing.T) {
	q := NewQueue([]string{"x", "y"})
	q.MarkRepaired("x") // repaired by a client read
	if k := q.Next(); k != "y" {
		t.Fatalf("Next = %q, want y", k)
	}
}

func TestModeString(t *testing.T) {
	if Lazy.String() != "lazy" || Aggressive.String() != "aggressive" {
		t.Fatal("mode strings wrong")
	}
}
