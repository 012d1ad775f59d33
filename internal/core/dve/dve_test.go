package dve

import (
	"errors"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

func testImage(entry string) *appimage.Image {
	return &appimage.Image{Name: "t", EntryPoint: entry, Payload: []byte{1}}
}

func TestLaunchRunsApp(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := NewRegistry()
	var ran, exited bool
	var exitErr error
	reg.Register("app", func(env *Env) error {
		ran = true
		if env.NodeID != 7 || env.InstanceID != 3 {
			t.Errorf("env identity: %d/%d", env.NodeID, env.InstanceID)
		}
		return nil
	})
	_, err := Launch(Config{
		Clock: clk, Registry: reg, Image: testImage("app"),
		NodeID: 7, InstanceID: 3,
		OnExit: func(err error) { exited, exitErr = true, err },
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Wait()
	if !ran {
		t.Fatal("app never ran")
	}
	if !exited || exitErr != nil {
		t.Fatalf("exited=%v err=%v", exited, exitErr)
	}
}

func TestLaunchUnknownEntryPoint(t *testing.T) {
	clk := simtime.NewSim(epoch)
	if _, err := Launch(Config{Clock: clk, Registry: NewRegistry(), Image: testImage("nope")}); err == nil {
		t.Fatal("unknown entry point accepted")
	}
}

func TestExecuteUsesPerfModel(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := NewRegistry()
	var finished time.Time
	reg.Register("app", func(env *Env) error {
		env.Execute(10) // 10 reference seconds
		finished = env.Clk.Now()
		return nil
	})
	_, err := Launch(Config{
		Clock: clk, Registry: reg, Image: testImage("app"),
		TaskDuration: func(ref float64) time.Duration {
			return time.Duration(ref * 2 * float64(time.Second)) // 2× slower device
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Wait()
	if !finished.Equal(epoch.Add(20 * time.Second)) {
		t.Fatalf("finished at %v, want epoch+20s", finished)
	}
}

func TestDestroyInterruptsExecute(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := NewRegistry()
	var completed, sawDestroyed bool
	reg.Register("app", func(env *Env) error {
		completed = env.Execute(3600)
		sawDestroyed = env.Destroyed()
		return errors.New("aborted")
	})
	var exited bool
	var exitErr error
	d, err := Launch(Config{Clock: clk, Registry: reg, Image: testImage("app"),
		OnExit: func(err error) { exited, exitErr = true, err }})
	if err != nil {
		t.Fatal(err)
	}
	clk.AfterFunc(5*time.Second, d.Destroy)
	clk.Wait()
	if completed {
		t.Fatal("destroyed task reported completion")
	}
	if !sawDestroyed {
		t.Fatal("env did not observe destruction")
	}
	if !clk.Now().Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("teardown at %v, want epoch+5s (prompt)", clk.Now())
	}
	if !exited || exitErr == nil {
		t.Fatalf("exited=%v err=%v", exited, exitErr)
	}
}

// TestExecuteZeroTimeDoesNotPark: a task that takes no device time
// returns at once. On the wall clock a park builds a parker and a
// runtime timer, so a zero-time Execute must allocate nothing; once the
// DVE is destroyed it reports the result discarded.
func TestExecuteZeroTimeDoesNotPark(t *testing.T) {
	env := &Env{Clk: simtime.NewReal(), TaskDuration: func(float64) time.Duration { return 0 }}
	if got := testing.AllocsPerRun(100, func() {
		if !env.Execute(1) {
			t.Fatal("zero-time task reported destroyed")
		}
	}); got != 0 {
		t.Fatalf("a zero-time Execute allocates %.0f times", got)
	}
	env.interrupt.Cancel()
	if env.Execute(1) {
		t.Fatal("zero-time task on a destroyed DVE reported completion")
	}
}

func TestOnTaskCounter(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := NewRegistry()
	count := 0
	reg.Register("app", func(env *Env) error {
		for i := 0; i < 3; i++ {
			env.Execute(1)
			env.NoteTaskDone()
		}
		return nil
	})
	_, err := Launch(Config{
		Clock: clk, Registry: reg, Image: testImage("app"),
		OnTask: func() { count++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Wait()
	if count != 3 {
		t.Fatalf("task count = %d", count)
	}
}

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
