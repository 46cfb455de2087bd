(define gen-tag (make-continuation-prompt-tag 'gen))

(define (make-gen producer)
  (let ([resume 'start])
    (lambda ()
      (call-with-continuation-prompt
       (lambda ()
         (if (eq? resume 'start)
             (begin
               (producer
                (lambda (v)
                  (call-with-composable-continuation
                   (lambda (k)
                     (abort-current-continuation gen-tag
                       (lambda () (set! resume k) v)))
                   gen-tag)))
               'gen-done)
             (resume 'go)))
       gen-tag (lambda (t) (t))))))

(define (ints-gen n)
  (make-gen (lambda (yield)
              (let loop ([i 0])
                (when (< i n) (yield i) (loop (+ i 1)))))))

(define (filter-gen g pred)
  (make-gen (lambda (yield)
              (let loop ([v (g)])
                (if (eq? v 'gen-done)
                    'end
                    (begin (when (pred v) (yield v)) (loop (g))))))))

(define (map-gen g f)
  (make-gen (lambda (yield)
              (let loop ([v (g)])
                (if (eq? v 'gen-done)
                    'end
                    (begin (yield (f v)) (loop (g))))))))

(define (sum-gen g)
  (let loop ([acc 0] [v (g)])
    (if (eq? v 'gen-done) acc (loop (+ acc v) (g)))))

(define (pipeline n)
  (sum-gen (map-gen (filter-gen (ints-gen n) even?)
                    (lambda (x) (* x x)))))
