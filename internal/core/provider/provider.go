// Package provider implements the OddCI Provider: the component
// "responsible for creating, managing and destroying the instances of
// OddCI according to the user's requests" (§3.1). It is the public face
// of the control plane: users ask for an instance of a given size
// running a given image; the Provider instructs the Controller and
// exposes consolidated status.
package provider

import (
	"errors"
	"fmt"
	"sync"

	"oddci/internal/appimage"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
)

// Provider fronts one Controller. (The paper allows a Provider to
// manage several Controllers/broadcast networks; this implementation
// pairs one of each — the multi-network generalization would add a
// routing table here.)
type Provider struct {
	mu   sync.Mutex
	ctrl *controller.Controller
}

// New wraps a started Controller.
func New(ctrl *controller.Controller) *Provider {
	return &Provider{ctrl: ctrl}
}

// Rebind points the Provider (and every outstanding Instance handle) at
// a replacement Controller — the crash-recovery path, where a restarted
// Controller replays its journal and resumes serving the same instance
// IDs.
func (p *Provider) Rebind(ctrl *controller.Controller) {
	p.mu.Lock()
	p.ctrl = ctrl
	p.mu.Unlock()
}

// controller returns the current Controller under the lock.
func (p *Provider) controller() *controller.Controller {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ctrl
}

// Instance is a user's handle on one provisioned OddCI instance.
type Instance struct {
	id instance.ID
	p  *Provider

	mu        sync.Mutex
	destroyed bool
}

// Create provisions a new instance.
func (p *Provider) Create(spec controller.InstanceSpec) (*Instance, error) {
	id, err := p.controller().CreateInstance(spec)
	if err != nil {
		return nil, err
	}
	return &Instance{id: id, p: p}, nil
}

// Population reports the Controller's view of the device population.
func (p *Provider) Population() (idle, busy int) { return p.controller().Population() }

// ID returns the instance identifier.
func (i *Instance) ID() instance.ID { return i.id }

// Status returns consolidated instance state.
func (i *Instance) Status() (controller.InstanceStatus, error) {
	return i.p.controller().Status(i.id)
}

// Resize adjusts the target size. On a destroyed instance it returns
// the Controller's controller.ErrInstanceGone.
func (i *Instance) Resize(target int) error {
	return i.p.controller().Resize(i.id, target)
}

// Recompose replaces the instance's application image in place; live
// members receive the new content as a delta (carousel module hashes on
// the broadcast plane, manifest + chunk frames on TCP). On a destroyed
// instance it returns the Controller's controller.ErrInstanceGone.
func (i *Instance) Recompose(img *appimage.Image) error {
	return i.p.controller().Recompose(i.id, img)
}

// Destroyed reports whether Destroy has been called on this handle.
func (i *Instance) Destroyed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.destroyed
}

// Destroy dismantles the instance. Finding the Controller has already
// destroyed (or garbage-collected) it is not an error: the state the
// caller asked for holds either way.
func (i *Instance) Destroy() error {
	i.mu.Lock()
	if i.destroyed {
		i.mu.Unlock()
		return nil
	}
	i.destroyed = true
	i.mu.Unlock()
	err := i.p.controller().DestroyInstance(i.id)
	if err != nil && !errors.Is(err, controller.ErrInstanceGone) {
		return fmt.Errorf("provider: destroy %d: %w", i.id, err)
	}
	return nil
}
