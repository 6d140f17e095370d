package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestPhaseAccumulation(t *testing.T) {
	c := NewCollector()
	c.Add(Encode, 10*time.Millisecond)
	c.Add(Encode, 5*time.Millisecond)
	c.Add(Transport, time.Millisecond)
	s := c.Snapshot()
	if s.Phase(Encode) != 15*time.Millisecond {
		t.Fatalf("Encode = %v", s.Phase(Encode))
	}
	if s.PhaseCount[Encode] != 2 || s.PhaseCount[Transport] != 1 {
		t.Fatal("phase counts wrong")
	}
	if s.Phase(Classify) != 0 {
		t.Fatal("untouched bucket non-zero")
	}
}

func TestResponseMeans(t *testing.T) {
	c := NewCollector()
	c.RecordWrite(1, 10*time.Millisecond)
	c.RecordWrite(1, 20*time.Millisecond)
	c.RecordRead(2, 30*time.Millisecond)
	s := c.Snapshot()
	if s.MeanWrite() != 15*time.Millisecond {
		t.Fatalf("MeanWrite = %v", s.MeanWrite())
	}
	if s.MeanRead() != 30*time.Millisecond {
		t.Fatalf("MeanRead = %v", s.MeanRead())
	}
	if s.WriteCount != 2 || s.ReadCount != 1 {
		t.Fatal("counts wrong")
	}
}

func TestEmptyMeansAreZero(t *testing.T) {
	s := NewCollector().Snapshot()
	if s.MeanWrite() != 0 || s.MeanRead() != 0 {
		t.Fatal("empty collector has non-zero means")
	}
}

func TestSeriesOrderedByTimeStep(t *testing.T) {
	c := NewCollector()
	c.RecordRead(5, time.Millisecond)
	c.RecordRead(1, 2*time.Millisecond)
	c.RecordRead(3, 3*time.Millisecond)
	c.RecordRead(3, 5*time.Millisecond)
	s := c.Snapshot()
	if len(s.Steps) != 3 {
		t.Fatalf("got %d steps", len(s.Steps))
	}
	if s.Steps[0].TimeStep != 1 || s.Steps[1].TimeStep != 3 || s.Steps[2].TimeStep != 5 {
		t.Fatalf("steps out of order: %+v", s.Steps)
	}
	if s.Steps[1].MeanRead != 4*time.Millisecond || s.Steps[1].ReadCount != 2 {
		t.Fatalf("step 3 stats wrong: %+v", s.Steps[1])
	}
}

func TestReset(t *testing.T) {
	c := NewCollector()
	c.Add(Encode, time.Second)
	c.RecordWrite(1, time.Second)
	c.Reset()
	s := c.Snapshot()
	if s.Phase(Encode) != 0 || s.WriteCount != 0 || len(s.Steps) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestConcurrentUse(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(Transport, time.Microsecond)
				c.RecordWrite(int64(j%5), time.Microsecond)
				c.RecordRead(int64(j%5), time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.WriteCount != 1600 || s.ReadCount != 1600 || s.PhaseCount[Transport] != 1600 {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestBucketString(t *testing.T) {
	if Transport.String() != "transport" || Classify.String() != "classify" {
		t.Fatal("bucket names wrong")
	}
	if Bucket(42).String() == "" {
		t.Fatal("unknown bucket empty")
	}
}
